"""Tour of the reverse-mode autodiff engine.

Builds a few small graphs, reads gradients back, and runs the
finite-difference checker on a composite chain.
"""

import numpy as np

from mmfuse import autodiff as ad
from mmfuse.autodiff import RunningStats, Tensor, grad_check

print("== scalars and fan-out ==")
x = Tensor([3.0], requires_grad=True)
loss = ad.mul(x, x).sum()  # x^2
loss.backward()
print(f"d(x^2)/dx at x=3: {x.grad[0]}  (power rule gives 6)")

x = Tensor([1.0], requires_grad=True)
ad.add(ad.add(x, x), x).sum().backward()
print(f"x used three times accumulates grad {x.grad[0]}")

print("\n== a linear layer and its gradients ==")
rng = np.random.default_rng(0)
inputs = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
w = Tensor(rng.normal(size=(3, 2)), requires_grad=True)
b = Tensor(np.zeros(2), requires_grad=True)
out = ad.linear(inputs, w, b)
print(f"linear: {inputs.shape} @ {w.shape} + bias -> {out.shape}")
ad.mul(out, out).sum().backward()
print(f"db equals the column sums of the upstream gradient: {b.grad}")

print("\n== each attention head's weights stay on the simplex ==")
# two samples, metadata width 2 and image width 4: 2 heads of 3 coordinates
qkv_meta = Tensor(rng.normal(scale=3.0, size=(2, 6)))
qkv_img = Tensor(rng.normal(scale=3.0, size=(2, 12)))
_, weights = ad.gating_attention(qkv_meta, qkv_img, 2)
print(weights.round(6))
print("per-head sums:", weights.sum(axis=-1))

print("\n== batch norm in train vs eval mode ==")
stats = RunningStats(mean=np.zeros(2), var=np.ones(2))
batch = Tensor(rng.normal(loc=5.0, size=(8, 2)))
gamma, beta = Tensor(np.ones(2)), Tensor(np.zeros(2))
normed = ad.batch_norm(batch, gamma, beta, stats, "train")
print("train-mode feature means:", normed.data.mean(axis=0).round(12))
print("running mean moved toward the batch:", stats.mean.round(3))

print("\n== finite-difference verification ==")
target = Tensor(rng.normal(size=(3, 6)), requires_grad=True)

def chain(t):
    # gating attention reads q, k and v as the thirds of t: one head of width 2
    gated, _ = ad.gating_attention(Tensor(np.zeros((3, 0))), t, 1)
    return ad.mul(gated, gated).sum()

report = grad_check(chain, target)
print(f"gating attention chain: max rel err {report.max_rel_error:.2e} "
      f"-> {'PASS' if report.passed else 'FAIL'}")
