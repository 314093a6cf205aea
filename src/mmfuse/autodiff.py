"""Reverse-mode automatic differentiation over dense float64 arrays.

The graph is recorded implicitly: every operation returns a Tensor that
keeps references to its parents and a closure computing the parent
gradients from the output gradient. ``Tensor.backward()`` topologically
orders the recorded operations and replays them once each, accumulating
gradients additively so a value consumed k times receives the sum of its
k upstream gradients.

All computation is double precision; the finite-difference checker
(``grad_check``) relies on that.

``conv2d`` is lowered to matrix products (im2col). The input is padded
once into a channel-major ``(C, B, H+2p, W+2p)`` buffer, and k*k strided
slice copies fill ``cols`` of shape ``(C*k*k, B*H*W)``, rows ordered
(channel, kernel row, kernel column) like ``w.reshape(Cout, -1)``. The
forward pass is ``w_mat @ cols``, dW is ``g_mat @ cols.T``, and dX is
``w_mat.T @ g_mat`` scattered back by k*k strided adds (col2im). The
output is a ``(B, Cout, H, W)`` view of channel-major memory.

``max_pool2`` takes the elementwise maximum of the four strided views of
each 2x2 block. On a tie the whole gradient goes to the first maximal
element in row-major order within the block: (0,0), (0,1), (1,0), (1,1).

``batch_norm`` normalizes, applies gamma/beta and differentiates on the
features-first ``(F, N)`` view, free for ``(B, F)`` input and for conv's
channel-major output. Its train-mode backward is the closed form
``dx = gamma * inv / n * (n * g - sum(g) - xhat * sum(g * xhat))``; the
two sums are also the beta and gamma gradients.

Layout rule: an op's input gradient has its input's memory order, so conv's
channel-major layout carries through batch norm, ReLU and max-pool both
ways, and conv reads its output gradient as ``(Cout, B*H*W)`` without a copy.

Under ``with no_graph():`` ops record no graph (see ``no_graph``).
"""

from dataclasses import dataclass

import numpy as np

from .errors import ContractError, DimensionError, NumericError


class Tensor:
    """Dense float64 array, optionally tracked by the autodiff graph."""

    __slots__ = ("data", "grad", "requires_grad", "name", "_parents", "_backward")

    def __init__(self, data, requires_grad=False, name=None):
        self.data = np.array(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self.name = name
        self._parents = ()
        self._backward = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    def zero_grad(self):
        self.grad = None

    def backward(self):
        """Populate ``grad`` of every requires-grad ancestor of this scalar."""
        if self.data.size != 1:
            raise ContractError(
                f"backward() needs a scalar, got shape {self.data.shape}"
            )
        if not self.requires_grad:
            return
        topo = _toposort(self)
        _accumulate(self, np.ones_like(self.data))
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    def sum(self):
        x = self
        out = _result(np.array(x.data.sum()), (x,))
        if out.requires_grad:
            def bw(g):
                _accumulate(x, np.broadcast_to(g, x.data.shape))
            out._backward = bw
        return out

    def mean(self):
        return scale(self.sum(), 1.0 / self.data.size)

    def __add__(self, other):
        return add(self, other)

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return scale(self, float(other))
        return mul(self, other)

    __rmul__ = __mul__

    def __neg__(self):
        return scale(self, -1.0)

    def __sub__(self, other):
        return add(self, scale(other, -1.0))

    def __repr__(self):
        req = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}{req}, name={self.name!r})"


class no_graph:
    """Context manager: op outputs made inside need no gradient and keep no
    parents or backward closure, nor the arrays one would read. Forward
    values are unchanged. Blocks nest, also with one instance, and exit
    restores the previous state, also when the block raises.
    """

    depth = 0  # blocks open; ops record a graph only at depth 0

    def __enter__(self):
        no_graph.depth += 1
        return self

    def __exit__(self, *exc_info):
        no_graph.depth -= 1


def _result(data, parents):
    """Build an op output; graph links are kept only if a parent needs them."""
    t = Tensor.__new__(Tensor)
    t.data = data
    t.grad = None
    t.requires_grad = not no_graph.depth and any(p.requires_grad for p in parents)
    t.name = None
    t._parents = tuple(parents) if t.requires_grad else ()
    t._backward = None
    return t


def _accumulate(t, g):
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = np.array(g, dtype=np.float64)
    else:
        t.grad += g


def _toposort(root):
    order, seen = [], set()
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in seen:
                stack.append((p, False))
    return order


# ---------------------------------------------------------------------------
# elementwise and scalar ops


def add(a, b):
    if a.data.shape != b.data.shape:
        raise DimensionError(f"add: shapes {a.data.shape} and {b.data.shape} differ")
    out = _result(a.data + b.data, (a, b))
    if out.requires_grad:
        def bw(g):
            _accumulate(a, g)
            _accumulate(b, g)
        out._backward = bw
    return out


def mul(a, b):
    if a.data.shape != b.data.shape:
        raise DimensionError(f"mul: shapes {a.data.shape} and {b.data.shape} differ")
    out = _result(a.data * b.data, (a, b))
    if out.requires_grad:
        def bw(g):
            _accumulate(a, g * b.data)
            _accumulate(b, g * a.data)
        out._backward = bw
    return out


def scale(a, c):
    c = float(c)
    out = _result(a.data * c, (a,))
    if out.requires_grad:
        def bw(g):
            _accumulate(a, g * c)
        out._backward = bw
    return out


def relu(a):
    mask = a.data > 0.0
    out = _result(a.data * mask, (a,))
    if out.requires_grad:
        def bw(g):
            _accumulate(a, g * mask)
        out._backward = bw
    return out


# ---------------------------------------------------------------------------
# linear algebra


def linear(x, w, b):
    """x @ w + b for x (B,n), w (n,m), b (m,)."""
    if x.data.ndim != 2 or w.data.ndim != 2 or x.data.shape[1] != w.data.shape[0]:
        raise DimensionError(
            f"linear: input {x.data.shape} incompatible with weight {w.data.shape}"
        )
    if b.data.shape != (w.data.shape[1],):
        raise DimensionError(
            f"linear: bias {b.data.shape} incompatible with weight {w.data.shape}"
        )
    out = _result(x.data @ w.data + b.data, (x, w, b))
    if out.requires_grad:
        def bw(g):
            _accumulate(x, g @ w.data.T)
            _accumulate(w, x.data.T @ g)
            _accumulate(b, g.sum(axis=0))
        out._backward = bw
    return out


# ---------------------------------------------------------------------------
# shape ops


def reshape(x, shape):
    out = _result(x.data.reshape(shape), (x,))
    if out.requires_grad:
        def bw(g):
            _accumulate(x, g.reshape(x.data.shape))
        out._backward = bw
    return out


def concat(a, b):
    """Join along the last (feature) axis; leading axes must match."""
    if a.data.ndim != b.data.ndim or a.data.shape[:-1] != b.data.shape[:-1]:
        raise DimensionError(
            f"concat: shapes {a.data.shape} and {b.data.shape} differ off the last axis"
        )
    p = a.data.shape[-1]
    out = _result(np.concatenate([a.data, b.data], axis=-1), (a, b))
    if out.requires_grad:
        def bw(g):
            _accumulate(a, g[..., :p])
            _accumulate(b, g[..., p:])
        out._backward = bw
    return out


def split_thirds(x):
    """Divide the last axis into contiguous equal thirds (query, key, value)."""
    n = x.data.shape[-1]
    if n % 3 != 0:
        raise DimensionError(f"split_thirds: last axis {n} not divisible by 3")
    d = n // 3
    parts = []
    for k in range(3):
        sl = slice(k * d, (k + 1) * d)
        part = _result(np.ascontiguousarray(x.data[..., sl]), (x,))
        if part.requires_grad:
            def bw(g, sl=sl):
                if x.grad is None:
                    x.grad = np.zeros_like(x.data)
                x.grad[..., sl] += g
            part._backward = bw
        parts.append(part)
    return tuple(parts)


# ---------------------------------------------------------------------------
# softmax


def softmax(x):
    """Row-wise softmax with max subtraction; 1-D input is a single row."""
    xd = x.data
    if not np.all(np.isfinite(xd)):
        raise NumericError("softmax: input contains non-finite values")
    z = xd - xd.max(axis=-1, keepdims=True)
    e = np.exp(z)
    y = e / e.sum(axis=-1, keepdims=True)
    out = _result(y, (x,))
    if out.requires_grad:
        def bw(g):
            dot = (g * y).sum(axis=-1, keepdims=True)
            _accumulate(x, y * (g - dot))
        out._backward = bw
    return out


# ---------------------------------------------------------------------------
# batch normalization


@dataclass
class RunningStats:
    """Mutable running mean/var buffers of a batch-norm layer."""

    mean: np.ndarray
    var: np.ndarray
    momentum: float = 0.1
    eps: float = 1e-5


def _features_first(a):
    """(F, N) view of a (B, F) or (B, C, H, W) array; free for (B, F) and
    for channel-major (B, C, H, W) memory, a copy for batch-major."""
    if a.ndim == 2:
        return a.T
    return a.transpose(1, 0, 2, 3).reshape(a.shape[1], -1)


def _batch_major(a, shape):
    """The (B, F) or (B, C, H, W) view of a features-first (F, N) array."""
    if len(shape) == 2:
        return a.T
    B, C, H, W = shape
    return a.reshape(C, B, H, W).transpose(1, 0, 2, 3)


def batch_norm(x, gamma, beta, stats, mode):
    """Normalize features of a (B,F) or (B,C,H,W) batch.

    Train mode normalizes by the batch mean and population variance and
    updates the running statistics; eval mode normalizes by the running
    statistics. The affine transform gamma/beta is applied last. Train-mode
    backward differentiates through the batch statistics.
    """
    xd = x.data
    if xd.ndim not in (2, 4):
        raise DimensionError(f"batch_norm: expected 2-D or 4-D input, got {xd.shape}")
    nfeat = xd.shape[1]
    if gamma.data.shape != (nfeat,) or beta.data.shape != (nfeat,):
        raise DimensionError(
            f"batch_norm: gamma/beta must have shape ({nfeat},)"
        )
    if mode not in ("train", "eval"):
        raise ContractError(f"batch_norm: unknown mode {mode!r}")
    axes = (0,) + tuple(range(2, xd.ndim))
    bshape = (1, nfeat) + (1,) * (xd.ndim - 2)
    n = xd.size // nfeat

    if mode == "train":
        mean = xd.mean(axis=axes)
        xc = xd - mean.reshape(bshape)
        # equals np.var(xd, axis=axes) bit for bit: np.var also centres first
        var = (xc * xc).mean(axis=axes)
        stats.mean[:] = (1.0 - stats.momentum) * stats.mean + stats.momentum * mean
        stats.var[:] = (1.0 - stats.momentum) * stats.var + stats.momentum * var
    else:
        xc = xd - stats.mean.reshape(bshape)
        var = stats.var

    inv = (1.0 / np.sqrt(var + stats.eps))[:, None]
    gam = gamma.data[:, None]
    xhat = _features_first(xc)  # xc is ours: normalize it in place
    xhat *= inv
    y = gam * xhat
    y += beta.data[:, None]
    out = _result(_batch_major(y, xd.shape), (x, gamma, beta))
    if out.requires_grad:
        def bw(g):
            gf = _features_first(g)
            sum_g = gf.sum(axis=1)
            sum_gx = (gf * xhat).sum(axis=1)
            _accumulate(gamma, sum_gx)
            _accumulate(beta, sum_g)
            if x.requires_grad:
                if mode == "train":
                    # closed form: gamma*inv/n * (n*g - sum(g) - xhat*sum(g*xhat))
                    dx = gf * n
                    dx -= sum_g[:, None]
                    dx -= xhat * sum_gx[:, None]
                    dx *= gam * inv / n
                else:
                    dx = gf * (gam * inv)
                _accumulate(x, _batch_major(dx, xd.shape))
        out._backward = bw
    return out


# ---------------------------------------------------------------------------
# convolution and pooling


def conv2d(x, w, b):
    """Same-padded stride-1 convolution; w is (Cout, Cin, k, k) with odd k."""
    xd, wd = x.data, w.data
    if xd.ndim != 4 or wd.ndim != 4 or wd.shape[2] != wd.shape[3]:
        raise DimensionError(f"conv2d: bad shapes x={xd.shape} w={wd.shape}")
    if xd.shape[1] != wd.shape[1]:
        raise DimensionError(
            f"conv2d: input channels {xd.shape[1]} != kernel channels {wd.shape[1]}"
        )
    k = wd.shape[2]
    if k % 2 != 1:
        raise DimensionError(f"conv2d: kernel size {k} must be odd")
    pad = k // 2
    B, C, H, W = xd.shape
    Cout = wd.shape[0]
    xp = np.zeros((C, B, H + 2 * pad, W + 2 * pad))
    xp[:, :, pad : pad + H, pad : pad + W] = xd.transpose(1, 0, 2, 3)
    cols = np.empty((C, k, k, B, H, W))
    for i in range(k):
        for j in range(k):
            cols[:, i, j] = xp[:, :, i : i + H, j : j + W]
    cols = cols.reshape(C * k * k, B * H * W)
    w_mat = wd.reshape(Cout, C * k * k)
    y = w_mat @ cols
    y += b.data[:, None]
    out = _result(y.reshape(Cout, B, H, W).transpose(1, 0, 2, 3), (x, w, b))
    if out.requires_grad:
        # keep only what backward reads: cols for dW, the weight for dX
        cols_kept = cols if w.requires_grad else None

        def bw(g):
            g_mat = g.transpose(1, 0, 2, 3).reshape(Cout, B * H * W)
            if w.requires_grad:
                _accumulate(w, (g_mat @ cols_kept.T).reshape(wd.shape))
            if b.requires_grad:
                _accumulate(b, g_mat.sum(axis=1))
            if x.requires_grad:
                dcols = (w_mat.T @ g_mat).reshape(C, k, k, B, H, W)
                dxp = np.zeros((C, B, H + 2 * pad, W + 2 * pad))
                for i in range(k):
                    for j in range(k):
                        dxp[:, :, i : i + H, j : j + W] += dcols[:, i, j]
                dx = dxp[:, :, pad : pad + H, pad : pad + W]
                _accumulate(x, dx.transpose(1, 0, 2, 3))
        out._backward = bw
    return out


def max_pool2(x):
    """2x2 max pooling with stride 2; ties route the gradient to the first max."""
    xd = x.data
    if xd.ndim != 4 or xd.shape[2] % 2 or xd.shape[3] % 2:
        raise DimensionError(f"max_pool2: shape {xd.shape} not 4-D with even H, W")
    B, C, H, W = xd.shape
    h2, w2 = H // 2, W // 2
    blocks = xd.reshape(B, C, h2, 2, w2, 2)
    y = np.maximum(
        np.maximum(blocks[:, :, :, 0, :, 0], blocks[:, :, :, 0, :, 1]),
        np.maximum(blocks[:, :, :, 1, :, 0], blocks[:, :, :, 1, :, 1]),
    )
    out = _result(y, (x,))
    if out.requires_grad:
        def bw(g):
            # same memory layout as x, so a channel-major input keeps it
            dx = np.empty_like(xd)
            db = dx.reshape(B, C, h2, 2, w2, 2)
            taken = np.zeros(y.shape, dtype=bool)
            for i, j in ((0, 0), (0, 1), (1, 0), (1, 1)):
                first = (blocks[:, :, :, i, :, j] == y) & ~taken
                # g where this view holds the block's first max, else zero
                np.multiply(g, first, out=db[:, :, :, i, :, j])
                taken |= first
            _accumulate(x, dx)
        out._backward = bw
    return out


def global_avg_pool(x):
    xd = x.data
    if xd.ndim != 4:
        raise DimensionError(f"global_avg_pool: expected 4-D input, got {xd.shape}")
    area = xd.shape[2] * xd.shape[3]
    out = _result(xd.mean(axis=(2, 3)), (x,))
    if out.requires_grad:
        def bw(g):
            _accumulate(
                x, np.broadcast_to(g[:, :, None, None] / area, xd.shape).copy()
            )
        out._backward = bw
    return out


# ---------------------------------------------------------------------------
# loss


def cross_entropy_logits(logits, labels, class_weights):
    """Per-class weighted cross-entropy of softmax(logits), via log-sum-exp.

    loss = -(1/B) sum_b w[y_b] * log softmax(logits[b])[y_b]
    """
    z = logits.data
    if z.ndim != 2:
        raise DimensionError(f"cross_entropy_logits: expected (B,N), got {z.shape}")
    labels = np.asarray(labels, dtype=np.intp)
    B = z.shape[0]
    if labels.shape != (B,):
        raise DimensionError(
            f"cross_entropy_logits: labels shape {labels.shape} != ({B},)"
        )
    w = np.asarray(class_weights, dtype=np.float64)[labels]
    m = z.max(axis=1, keepdims=True)
    lse = m + np.log(np.exp(z - m).sum(axis=1, keepdims=True))
    logp = z[np.arange(B), labels] - lse[:, 0]
    out = _result(np.array(-(w * logp).sum() / B), (logits,))
    if out.requires_grad:
        def bw(g):
            p = np.exp(z - lse)
            p[np.arange(B), labels] -= 1.0
            _accumulate(logits, p * (w * (float(g) / B))[:, None])
        out._backward = bw
    return out


# ---------------------------------------------------------------------------
# gradient verification


@dataclass
class GradCheckReport:
    max_rel_error: float
    passed: bool
    worst_index: int = -1


def grad_check(f, x, step=1e-5, tol=1e-4):
    """Compare analytic gradients of ``f`` w.r.t. ``x`` to central differences.

    ``f`` must map the Tensor ``x`` (whose data this routine perturbs in
    place) to a scalar Tensor, deterministically. The relative error uses
    max(|analytic|, |numeric|, 1e-8) as denominator.
    """
    if step <= 0:
        raise ContractError("grad_check: step must be positive")
    out = f(x)
    if out.data.size != 1:
        raise ContractError("grad_check: f must be scalar-valued")
    if not np.isfinite(out.data):
        raise NumericError("grad_check: f(x) is not finite")
    x.zero_grad()
    out.backward()
    analytic = (
        np.zeros_like(x.data) if x.grad is None else x.grad.copy()
    ).ravel()

    flat = x.data.ravel()
    worst, worst_i = 0.0, -1
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + step
        fp = float(f(x).data)
        flat[i] = orig - step
        fm = float(f(x).data)
        flat[i] = orig
        if not (np.isfinite(fp) and np.isfinite(fm)):
            raise NumericError(f"grad_check: f not finite at coordinate {i}")
        numeric = (fp - fm) / (2.0 * step)
        rel = abs(analytic[i] - numeric) / max(abs(analytic[i]), abs(numeric), 1e-8)
        if rel > worst:
            worst, worst_i = rel, i
    return GradCheckReport(max_rel_error=worst, passed=worst < tol, worst_index=worst_i)
