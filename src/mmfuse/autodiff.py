"""Reverse-mode automatic differentiation over dense float64 arrays.

The graph is recorded implicitly: every operation returns a Tensor that
keeps references to its parents and a closure computing the parent
gradients from the output gradient. ``Tensor.backward()`` topologically
orders the recorded operations and replays them once each, accumulating
gradients additively so a value consumed k times receives the sum of its
k upstream gradients.

All computation is double precision; the finite-difference checker
(``grad_check``) relies on that.

Image tensors are (B, C, H, W) views of batch-innermost memory: a
C-contiguous (C, H, W, B) array. ``conv2d`` is lowered to matrix products
(im2col). The input is padded once into a ``(C, H+2p, W+2p, B)`` buffer,
and k*k strided slice copies fill ``cols`` of shape ``(C*k*k, H*W*B)``,
rows ordered (channel, kernel row, kernel column) like
``w.reshape(Cout, -1)``. The forward pass is ``w_mat @ cols``, dW is
``g_mat @ cols.T``, and dX is ``w_mat.T @ g_mat`` scattered back by k*k
strided adds (col2im). With the batch innermost, each copy and add moves
runs of W*B contiguous elements rather than W.

``max_pool2`` takes the elementwise maximum of the four strided views of
each 2x2 block. On a tie the whole gradient goes to the first maximal
element in row-major order within the block: (0,0), (0,1), (1,0), (1,1).

``batch_norm`` normalizes, applies gamma/beta and differentiates on the
features-first ``(F, N)`` view, free for ``(B, F)`` input and for conv's
batch-innermost output. Its train-mode backward is the closed form
``dx = gamma * inv / n * (n * g - sum(g) - xhat * sum(g * xhat))``; the
two sums are also the beta and gamma gradients.

``conv_block`` is one image-encoder block,
``max_pool2(relu(batch_norm(conv2d(x, w, 0))))``, as a single graph node
with one backward closure. It pools before the ReLU: max commutes with the
monotone ReLU, and the first maximal element of a block is the same before
and after it (a block whose max is not positive gets no gradient either
way), so values and gradients are those of the chain, with the ReLU on a
quarter of the elements. It shares every kernel with the separate ops:
im2col/col2im, the batch-norm normalisation and closed-form backward, and
the 2x2 max with its first-max routing.

Layout rule: an op's input gradient has its input's memory order, so the
batch-innermost layout carries through batch norm, ReLU and max-pool both
ways, and conv reads its output gradient as ``(Cout, H*W*B)`` without a copy.

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
            if b.requires_grad:
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


def _chwb(a):
    """(C, H, W, B) view of a (B, C, H, W) array; C-contiguous for conv's output."""
    return a.transpose(1, 2, 3, 0)


def _bchw(a):
    """(B, C, H, W) view of a (C, H, W, B) array."""
    return a.transpose(3, 0, 1, 2)


def _features_first(a):
    """(F, N) view of a (B, F) or (B, C, H, W) array; free for (B, F) and
    for batch-innermost (C, H, W, B) memory, a copy otherwise."""
    if a.ndim == 2:
        return a.T
    return _chwb(a).reshape(a.shape[1], -1)


def _batch_major(a, shape):
    """The (B, F) or (B, C, H, W) view of a features-first (F, N) array."""
    if len(shape) == 2:
        return a.T
    B, C, H, W = shape
    return _bchw(a.reshape(C, H, W, B))


def _check_bn(nfeat, gamma, beta, mode):
    if gamma.data.shape != (nfeat,) or beta.data.shape != (nfeat,):
        raise DimensionError(f"batch_norm: gamma/beta must have shape ({nfeat},)")
    if mode not in ("train", "eval"):
        raise ContractError(f"batch_norm: unknown mode {mode!r}")


def _bn_forward(xd, gamma, beta, stats, mode):
    """Normalize xd per feature (axis 1) and apply gamma/beta; in train mode
    also update ``stats``. Returns the features-first output y, x-hat and
    gamma * inv, all (F, N) with N in xd's memory order."""
    nfeat = xd.shape[1]
    axes = (0,) + tuple(range(2, xd.ndim))
    bshape = (1, nfeat) + (1,) * (xd.ndim - 2)
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
    return y, xhat, gam * inv


def _bn_backward(gf, xhat, gam_inv, gamma, beta, mode, need_dx):
    """Accumulate the gamma/beta gradients of features-first gradient gf and
    return the features-first input gradient (None unless ``need_dx``)."""
    sum_g = gf.sum(axis=1)
    sum_gx = (gf * xhat).sum(axis=1)
    _accumulate(gamma, sum_gx)
    _accumulate(beta, sum_g)
    if not need_dx:
        return None
    if mode == "eval":
        return gf * gam_inv
    # closed form: gamma*inv/n * (n*g - sum(g) - xhat*sum(g*xhat))
    n = gf.shape[1]
    dx = gf * n
    dx -= sum_g[:, None]
    dx -= xhat * sum_gx[:, None]
    dx *= gam_inv / n
    return dx


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
    _check_bn(xd.shape[1], gamma, beta, mode)
    y, xhat, gam_inv = _bn_forward(xd, gamma, beta, stats, mode)
    out = _result(_batch_major(y, xd.shape), (x, gamma, beta))
    if out.requires_grad:
        def bw(g):
            dx = _bn_backward(_features_first(g), xhat, gam_inv, gamma, beta,
                              mode, x.requires_grad)
            if dx is not None:
                _accumulate(x, _batch_major(dx, xd.shape))
        out._backward = bw
    return out


# ---------------------------------------------------------------------------
# convolution and pooling


def _check_conv(xd, wd):
    """Validate a conv2d input/kernel pair; return the kernel size."""
    if xd.ndim != 4 or wd.ndim != 4 or wd.shape[2] != wd.shape[3]:
        raise DimensionError(f"conv2d: bad shapes x={xd.shape} w={wd.shape}")
    if xd.shape[1] != wd.shape[1]:
        raise DimensionError(
            f"conv2d: input channels {xd.shape[1]} != kernel channels {wd.shape[1]}"
        )
    k = wd.shape[2]
    if k % 2 != 1:
        raise DimensionError(f"conv2d: kernel size {k} must be odd")
    return k


def _im2col(xd, k):
    """cols (C*k*k, H*W*B) of a same-padded (B, C, H, W) input."""
    B, C, H, W = xd.shape
    p = k // 2
    xp = np.zeros((C, H + 2 * p, W + 2 * p, B))
    xp[:, p : p + H, p : p + W] = _chwb(xd)
    cols = np.empty((C, k, k, H, W, B))
    for i in range(k):
        for j in range(k):
            cols[:, i, j] = xp[:, i : i + H, j : j + W]
    return cols.reshape(C * k * k, H * W * B)


def _col2im(dcols, shape, k):
    """Adjoint of ``_im2col``: a (B, C, H, W) view of (C, H, W, B) memory."""
    B, C, H, W = shape
    p = k // 2
    dcols = dcols.reshape(C, k, k, H, W, B)
    dxp = np.zeros((C, H + 2 * p, W + 2 * p, B))
    for i in range(k):
        for j in range(k):
            dxp[:, i : i + H, j : j + W] += dcols[:, i, j]
    return _bchw(dxp[:, p : p + H, p : p + W])


def _conv_backward(g_mat, x, w, cols):
    """Accumulate dW and dX for the (Cout, H*W*B) output gradient g_mat."""
    wd = w.data
    w_mat = wd.reshape(wd.shape[0], -1)
    if w.requires_grad:
        _accumulate(w, (g_mat @ cols.T).reshape(wd.shape))
    if x.requires_grad:
        _accumulate(x, _col2im(w_mat.T @ g_mat, x.data.shape, wd.shape[2]))


def conv2d(x, w, b):
    """Same-padded stride-1 convolution; w is (Cout, Cin, k, k) with odd k."""
    xd, wd = x.data, w.data
    k = _check_conv(xd, wd)
    B, _, H, W = xd.shape
    Cout = wd.shape[0]
    cols = _im2col(xd, k)
    y = wd.reshape(Cout, -1) @ cols
    y += b.data[:, None]
    out = _result(_bchw(y.reshape(Cout, H, W, B)), (x, w, b))
    if out.requires_grad:
        # keep only what backward reads: cols for dW, the weight for dX
        cols_kept = cols if w.requires_grad else None

        def bw(g):
            g_mat = _features_first(g)
            if b.requires_grad:
                _accumulate(b, g_mat.sum(axis=1))
            _conv_backward(g_mat, x, w, cols_kept)
        out._backward = bw
    return out


def _check_pool(shape, op):
    if len(shape) != 4 or shape[2] % 2 or shape[3] % 2:
        raise DimensionError(f"{op}: shape {shape} not 4-D with even H, W")


def _windows(a):
    """(C, H/2, 2, W/2, 2, B) view of the 2x2 blocks of a (C, H, W, B) array."""
    C, H, W, B = a.shape
    return a.reshape(C, H // 2, 2, W // 2, 2, B)


def _max4(win):
    """Elementwise maximum of the four views of each 2x2 block."""
    return np.maximum(
        np.maximum(win[:, :, 0, :, 0], win[:, :, 0, :, 1]),
        np.maximum(win[:, :, 1, :, 0], win[:, :, 1, :, 1]),
    )


def _route_first_max(win, y, g, dwin, taken):
    """Write g to the first view of win, in row-major order within the
    block, that equals the block maximum y, and zero elsewhere in dwin.
    Blocks already True in the boolean ``taken`` (updated in place) get
    zeros throughout."""
    for i, j in ((0, 0), (0, 1), (1, 0), (1, 1)):
        first = (win[:, :, i, :, j] == y) & ~taken
        np.multiply(g, first, out=dwin[:, :, i, :, j])
        taken |= first


def max_pool2(x):
    """2x2 max pooling with stride 2; ties route the gradient to the first max."""
    xd = x.data
    _check_pool(xd.shape, "max_pool2")
    win = _windows(_chwb(xd))
    y = _max4(win)
    out = _result(_bchw(y), (x,))
    if out.requires_grad:
        def bw(g):
            # same memory layout as x
            dx = np.empty_like(xd)
            _route_first_max(win, y, _chwb(g), _windows(_chwb(dx)),
                             np.zeros(y.shape, dtype=bool))
            _accumulate(x, dx)
        out._backward = bw
    return out


def conv_block(x, w, gamma, beta, stats, mode):
    """``max_pool2(relu(batch_norm(conv2d(x, w, 0), ...)))`` as one graph op.

    It pools before the ReLU, which gives the same values and the same
    first-max gradient routing (see the module docstring), on a quarter of
    the elements. There is no conv bias: the batch norm would cancel it.
    """
    xd, wd = x.data, w.data
    k = _check_conv(xd, wd)
    B, _, H, W = xd.shape
    Cout = wd.shape[0]
    _check_bn(Cout, gamma, beta, mode)
    _check_pool(xd.shape, "conv_block")
    cols = _im2col(xd, k)
    conv = _bchw((wd.reshape(Cout, -1) @ cols).reshape(Cout, H, W, B))
    # free cols now unless backward will read it for dW
    cols = cols if w.requires_grad and not no_graph.depth else None
    z, xhat, gam_inv = _bn_forward(conv, gamma, beta, stats, mode)
    win = _windows(z.reshape(Cout, H, W, B))
    pooled = _max4(win)
    out = _result(_bchw(pooled * (pooled > 0.0)), (x, w, gamma, beta))
    if out.requires_grad:
        def bw(g):
            dz = np.empty(z.shape)
            # the ReLU passes nothing where the block max is not positive
            _route_first_max(win, pooled, _chwb(g), _windows(dz.reshape(Cout, H, W, B)),
                             pooled <= 0.0)
            dconv = _bn_backward(dz, xhat, gam_inv, gamma, beta, mode,
                                 x.requires_grad or w.requires_grad)
            if dconv is not None:
                _conv_backward(dconv, x, w, cols)
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
            # same memory layout as x
            dx = np.empty_like(xd)
            dx[...] = g[:, :, None, None] / area
            _accumulate(x, dx)
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
