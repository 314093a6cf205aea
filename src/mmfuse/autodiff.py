"""Reverse-mode automatic differentiation over dense float32 or float64 arrays.

The graph is recorded implicitly: every operation returns a Tensor that
keeps references to its parents and a closure computing the parent
gradients from the output gradient. ``Tensor.backward()`` topologically
orders the recorded operations (leaves have no backward and are not
visited) and replays them once each, accumulating gradients additively so
a value consumed k times receives the sum of its k upstream gradients.

Backward frees the graph as it goes, as PyTorch does without
``retain_graph``: each node drops its parents and closure before the
closure runs, so the arrays the closure saved are released once it has
run, and the node keeps a sentinel backward. A graph is therefore walked
once. A second ``backward()`` on the same root, or one on a new graph
built on an op output of a walked graph, raises ``ContractError`` before
any gradient changes.

Every op computes in its inputs' dtype. A ``Tensor`` keeps float32 data
as float32 and makes anything else float64, so a model built on float32
data trains and scores in float32, and one built on float64 data is
unchanged. The finite-difference checker (``grad_check``) needs float64
and refuses anything else.

Image tensors are (B, C, H, W) views of batch-innermost memory: a
C-contiguous (C, H, W, B) array. ``conv2d`` is lowered to matrix products
(im2col). The input is padded once into a ``(C, H+2p, W+2p, B)`` buffer,
and k*k strided slice copies fill ``cols`` of shape ``(C*k*k, H*W*B)``,
rows ordered (channel, kernel row, kernel column) like
``w.reshape(Cout, -1)``. The forward pass is ``w_mat @ cols``, dW is
``g_mat @ cols.T``, and dX is ``w_mat.T @ g_mat`` scattered back by k*k
strided adds (col2im), each clipped at the border of an unpadded buffer
that becomes the input's gradient without a copy. With the batch
innermost, each copy and add moves runs of W*B contiguous elements.

``max_pool2`` takes the elementwise maximum of the four strided views of
each 2x2 block. On a tie the whole gradient goes to the first maximal
element in row-major order within the block: (0,0), (0,1), (1,0), (1,1).
One kernel, ``_first_max_mask``, marks that element in a boolean mask in
window layout; backward multiplies the mask by the output gradient
broadcast over each block.

``batch_norm`` normalizes, applies gamma/beta and differentiates on the
features-first ``(F, N)`` view, free for ``(B, F)`` input and for conv's
batch-innermost output. Its backward is the closed form
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
the 2x2 max with its first-max mask, which its forward builds and saves in
place of the pre-pool activation: 1 byte per element, not 4 or 8.

``dense_block`` is one fully connected block, ``batch_norm(x @ w)`` with
an optional ReLU, as one node on the same batch-norm kernels.
``gating_attention`` is MMFA's multi-head per-coordinate attention as one
node that reads q, k and v as slices of the two (B, 3d) projections,
metadata first. With c = 1/sqrt(s) and p = softmax(K*Q*c) the weights,
its backward is dV = g*p; d = g*V; dz = p*(d - sum(d*p))*c; dQ = dz*K
and dK = dz*Q. ``cross_entropy_logits`` is the whole loss as one node: every
head's weighted cross-entropy and their weighted sum. Each of these
computes the expressions of the chain it replaces in the same order, so
its values and gradients are bitwise those of the chain.

Eval is inference: batch norm is folded and the output records nothing.
With s = gamma / sqrt(var + eps) of the running statistics, eval-mode
``batch_norm`` is x * s plus the bias beta - mean * s, and ``conv_block``
and ``dense_block`` multiply by w * s and add that bias, inside
``no_graph`` or not. Only train mode has a backward.

Layout rule: an op's input gradient has its input's memory order, so the
batch-innermost layout carries through batch norm, ReLU and max-pool both
ways, and conv reads its output gradient as ``(Cout, H*W*B)`` without a copy.

Op protocol: an op computes its output value, defines ``bw(g)`` taking
the output gradient, and returns ``_result(value, parents, bw)``, which
alone decides what the output records: the parents and ``bw`` when some
parent needs a gradient and no ``no_graph`` block is open, else ``()`` and
``None``. A backward hands each parent gradient, in the parent's shape, to
``_accumulate``, the only writer of ``.grad``; it drops gradients of
tensors that need none. A first gradient is stored as a copy, unless the
backward marks it ``owned``: an array it allocated for that parent alone
and does not read again, which becomes ``.grad`` as it is. A gradient
given to two parents (``add``), a slice of the output gradient
(``concat``) or a broadcast of it (``Tensor.sum``) is copied. A
parameter's ``.grad`` may be a view into a flat gradient vector
(``layers.Params``): ``_accumulate`` adds into it and ``Tensor.zero_grad``
zeros it in place, so the view stays one.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ContractError, DimensionError, NumericError


def _compute_dtype(a):
    """float32 for float32 data, float64 for anything else."""
    return np.dtype(np.float32 if getattr(a, "dtype", None) == np.float32 else np.float64)


class Tensor:
    """Dense float32 or float64 array, optionally tracked by the autodiff
    graph; data of any other type is copied as float64."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad=False):
        self.data = np.array(data, dtype=_compute_dtype(data))
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents = ()
        self._backward = None

    @property
    def shape(self):
        return self.data.shape

    def zero_grad(self):
        """Zero the gradient in place, so a view into a flat gradient vector
        stays one; a tensor without a gradient keeps none."""
        if self.grad is not None:
            self.grad.fill(0.0)

    def backward(self):
        """Populate ``grad`` of every requires-grad ancestor of this scalar,
        freeing the graph on the way.

        Each op node drops its parents and backward closure just before the
        closure runs, so what the closure saved is released as soon as it
        has run. A graph can be walked once: a second ``backward()`` on this
        root, or one on a graph built on any of its op outputs, raises
        ``ContractError`` before any gradient changes.
        """
        if self.data.size != 1:
            raise ContractError(
                f"backward() needs a scalar, got shape {self.data.shape}"
            )
        if not self.requires_grad:
            return
        topo = _toposort(self)
        if any(node._backward is _freed for node in topo):
            _freed(None)
        _accumulate(self, np.ones_like(self.data))
        while topo:
            node = topo.pop()
            bw, node._backward, node._parents = node._backward, _freed, ()
            if node.grad is not None:
                bw(node.grad)

    def sum(self):
        def bw(g):
            _accumulate(self, np.broadcast_to(g, self.data.shape))
        return _result(np.array(self.data.sum()), (self,), bw)

    def __repr__(self):
        req = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}{req})"


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


def _result(data, parents, backward):
    """Build an op output; it keeps ``parents`` and ``backward`` only if a
    parent needs a gradient and no ``no_graph`` block is open."""
    t = Tensor.__new__(Tensor)
    t.data = data
    t.grad = None
    t.requires_grad = not no_graph.depth and any(p.requires_grad for p in parents)
    t._parents = tuple(parents) if t.requires_grad else ()
    t._backward = backward if t.requires_grad else None
    return t


def _accumulate(t, g, owned=False):
    """Add ``g`` to ``t.grad`` unless ``t`` needs no gradient.

    The first gradient is stored as a copy in ``t``'s dtype, unless
    ``owned`` says the backward allocated ``g`` for ``t`` alone and reads it
    no more; then ``t.grad`` is ``g`` itself. A gradient handed to two
    parents, or a view of the output gradient, is never owned.
    """
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = g if owned else np.array(g, dtype=t.data.dtype)
    else:
        t.grad += g


def _freed(g):
    """Backward of an op node whose graph an earlier ``backward()`` walked."""
    raise ContractError(
        "backward() reached a graph that an earlier backward() freed; "
        "run the forward again"
    )


def _toposort(root):
    """Op nodes reachable from ``root`` in depth-first post-order; leaves,
    which have no backward, are not visited, and freed nodes are."""
    order, seen = [], set()
    stack = [(root, False)] if root._backward is not None else []
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
            if p._backward is not None and id(p) not in seen:
                stack.append((p, False))
    return order


# ---------------------------------------------------------------------------
# elementwise and scalar ops


def add(a, b):
    if a.data.shape != b.data.shape:
        raise DimensionError(f"add: shapes {a.data.shape} and {b.data.shape} differ")
    def bw(g):
        _accumulate(a, g)
        _accumulate(b, g)
    return _result(a.data + b.data, (a, b), bw)


def mul(a, b):
    if a.data.shape != b.data.shape:
        raise DimensionError(f"mul: shapes {a.data.shape} and {b.data.shape} differ")
    def bw(g):
        _accumulate(a, g * b.data, owned=True)
        _accumulate(b, g * a.data, owned=True)
    return _result(a.data * b.data, (a, b), bw)


def relu(a):
    mask = a.data > 0.0
    def bw(g):
        _accumulate(a, g * mask, owned=True)
    return _result(a.data * mask, (a,), bw)


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
    def bw(g):
        if x.requires_grad:
            _accumulate(x, g @ w.data.T, owned=True)
        _accumulate(w, x.data.T @ g, owned=True)
        _accumulate(b, g.sum(axis=0), owned=True)
    return _result(x.data @ w.data + b.data, (x, w, b), bw)


# ---------------------------------------------------------------------------
# shape ops


def concat(a, b):
    """Join along the last (feature) axis; leading axes must match."""
    if a.data.ndim != b.data.ndim or a.data.shape[:-1] != b.data.shape[:-1]:
        raise DimensionError(
            f"concat: shapes {a.data.shape} and {b.data.shape} differ off the last axis"
        )
    p = a.data.shape[-1]
    def bw(g):
        _accumulate(a, g[..., :p])
        _accumulate(b, g[..., p:])
    return _result(np.concatenate([a.data, b.data], axis=-1), (a, b), bw)


# ---------------------------------------------------------------------------
# softmax and attention


def _softmax(z):
    """Row-wise softmax of an array, with max subtraction; 1-D input is a
    single row. Not a graph op: the loss differentiates the logits itself."""
    if not np.all(np.isfinite(z)):
        raise NumericError("softmax: input contains non-finite values")
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _check_heads(width, heads):
    if heads < 1 or width % heads:
        raise DimensionError(f"attention width {width} not divisible by {heads} heads")


def gating_attention(qkv_meta, qkv_img, heads):
    """Multi-head per-coordinate gating attention over two q/k/v
    projections, as one graph op.

    ``qkv_meta`` (B, 3 d_m) and ``qkv_img`` (B, 3 d_i) each hold a query,
    a key and a value third. F_Q, F_K and F_V are gathered as (B, width),
    width = d_m + d_i, by one concatenation of the two viewed as (B, 3, d),
    metadata first, and split into ``heads`` contiguous blocks of
    s = width // heads coordinates. Per head the weights are
    softmax(F_K * F_Q / sqrt(s)) and the output is weights * F_V
    elementwise.

    Returns the (B, width) output and the weights as a plain
    (B, heads, s) array. Values and gradients equal those of the chain of
    thirds, concatenations, products, the softmax and the scaling.
    """
    for t in (qkv_meta, qkv_img):
        if t.data.ndim != 2 or t.data.shape[1] % 3:
            raise DimensionError(
                f"gating_attention: projection {t.data.shape} is not (B, 3d)"
            )
    b = qkv_meta.data.shape[0]
    if qkv_img.data.shape[0] != b:
        raise DimensionError(
            f"gating_attention: batch sizes {b} and {qkv_img.data.shape[0]} differ"
        )
    dm, di = qkv_meta.data.shape[1] // 3, qkv_img.data.shape[1] // 3
    width = dm + di
    _check_heads(width, heads)
    s = width // heads
    c = float(1.0 / np.sqrt(s))  # a NumPy float64 scalar would promote float32 to float64
    qkv = np.concatenate(
        (qkv_meta.data.reshape(b, 3, dm), qkv_img.data.reshape(b, 3, di)), axis=2
    )
    q, k, v = qkv.transpose(1, 0, 2)
    kq = (k * q).reshape(b * heads, s)
    p = _softmax(kq * c)
    vh = v.reshape(b * heads, s)
    def bw(g):
        g = g.reshape(b * heads, s)
        d = g * vh
        dz = (p * (d - (d * p).sum(axis=-1, keepdims=True)) * c).reshape(b, width)
        grads = np.stack((dz * k, dz * q, (g * p).reshape(b, width)), axis=1)  # dQ, dK, dV
        # disjoint parts of a fresh array
        _accumulate(qkv_meta, grads[:, :, :dm].reshape(b, 3 * dm), owned=True)
        _accumulate(qkv_img, grads[:, :, dm:].reshape(b, 3 * di), owned=True)
    out = _result((p * vh).reshape(b, width), (qkv_meta, qkv_img), bw)
    return out, p.reshape(b, heads, s)


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


def _bn_forward(xd, gamma, beta, stats):
    """Normalize xd per feature (axis 1) by its batch statistics, apply
    gamma/beta and update ``stats``. Returns the features-first output y,
    x-hat and gamma * inv, all (F, N) with N in xd's memory order."""
    nfeat = xd.shape[1]
    axes = (0,) + tuple(range(2, xd.ndim))
    # the sum divided by the count is how np.mean computes, bit for bit
    n = xd.size // nfeat
    mean = np.add.reduce(xd, axis=axes) / n
    xc = xd - mean.reshape((1, nfeat) + (1,) * (xd.ndim - 2))
    # equals np.var(xd, axis=axes) bit for bit: np.var also centres first
    var = np.add.reduce(xc * xc, axis=axes) / n
    m = stats.momentum
    for running, batch in ((stats.mean, mean), (stats.var, var)):
        running *= 1.0 - m
        running += m * batch
    inv = (1.0 / np.sqrt(var + stats.eps))[:, None]
    gam = gamma.data[:, None]
    xhat = _features_first(xc)  # xc is ours: normalize it in place
    xhat *= inv
    y = gam * xhat
    y += beta.data[:, None]
    return y, xhat, gam * inv


def _bn_fold(gamma, beta, stats):
    """Eval batch norm as a per-feature scale s = gamma / sqrt(var + eps)
    and shift beta - mean * s, folded into the preceding matrix product."""
    s = gamma.data / np.sqrt(stats.var + stats.eps)
    return s, beta.data - stats.mean * s


def _bn_backward(gf, xhat, gam_inv, gamma, beta, need_dx):
    """Accumulate the gamma/beta gradients of features-first gradient gf and
    return the features-first input gradient (None unless ``need_dx``)."""
    sum_g = gf.sum(axis=1)
    sum_gx = (gf * xhat).sum(axis=1)
    _accumulate(gamma, sum_gx)
    _accumulate(beta, sum_g)
    if not need_dx:
        return None
    # closed form: gamma*inv/n * (n*g - sum(g) - xhat*sum(g*xhat))
    n = gf.shape[1]
    dx = gf * n
    dx -= sum_g[:, None]
    dx -= xhat * sum_gx[:, None]
    dx *= gam_inv / n
    return dx


def batch_norm(x, gamma, beta, stats, mode):
    """Normalize features of a (B,F) or (B,C,H,W) batch.

    Train mode normalizes by the batch mean and population variance,
    updates the running statistics, applies gamma/beta and differentiates
    through the batch statistics. Eval is inference: batch norm is folded
    (see the module docstring) and the output records nothing.
    """
    xd = x.data
    if xd.ndim not in (2, 4):
        raise DimensionError(f"batch_norm: expected 2-D or 4-D input, got {xd.shape}")
    _check_bn(xd.shape[1], gamma, beta, mode)
    if mode == "eval":
        s, shift = _bn_fold(gamma, beta, stats)
        y = _features_first(xd) * s[:, None] + shift[:, None]
        return _result(_batch_major(y, xd.shape), (), None)
    y, xhat, gam_inv = _bn_forward(xd, gamma, beta, stats)
    def bw(g):
        dx = _bn_backward(_features_first(g), xhat, gam_inv, gamma, beta,
                          x.requires_grad)
        if dx is not None:
            _accumulate(x, _batch_major(dx, xd.shape), owned=True)
    return _result(_batch_major(y, xd.shape), (x, gamma, beta), bw)


def dense_block(x, w, gamma, beta, stats, mode, relu):
    """``batch_norm(x @ w)``, then a ReLU if ``relu``, as one graph op.

    ``x`` is (B, n) and ``w`` (n, m). There is no bias: the batch norm would
    cancel it. Train-mode values and gradients are those of the chain of
    ``linear`` with a zero bias, ``batch_norm`` and ``relu``. Eval is
    inference: batch norm is folded and the output records nothing.
    """
    xd, wd = x.data, w.data
    if xd.ndim != 2 or wd.ndim != 2 or xd.shape[1] != wd.shape[0]:
        raise DimensionError(
            f"dense_block: input {xd.shape} incompatible with weight {wd.shape}"
        )
    _check_bn(wd.shape[1], gamma, beta, mode)
    if mode == "eval":
        s, shift = _bn_fold(gamma, beta, stats)
        out = xd @ (wd * s) + shift
        if relu:
            out *= out > 0.0
        return _result(out, (), None)
    y, xhat, gam_inv = _bn_forward(xd @ wd, gamma, beta, stats)
    out = y.T
    if relu:
        mask = out > 0.0
        out = out * mask
    def bw(g):
        if relu:
            g = g * mask
        dz = _bn_backward(g.T, xhat, gam_inv, gamma, beta,
                          x.requires_grad or w.requires_grad)
        if dz is not None:
            if x.requires_grad:
                _accumulate(x, dz.T @ wd.T, owned=True)
            _accumulate(w, xd.T @ dz.T, owned=True)
    return _result(out, (x, w, gamma, beta), bw)


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
    xp = np.zeros((C, H + 2 * p, W + 2 * p, B), dtype=xd.dtype)
    xp[:, p : p + H, p : p + W] = _chwb(xd)
    cols = np.empty((C, k, k, H, W, B), dtype=xd.dtype)
    for i in range(k):
        for j in range(k):
            cols[:, i, j] = xp[:, i : i + H, j : j + W]
    return cols.reshape(C * k * k, H * W * B)


def _col2im(dcols, shape, k):
    """Adjoint of ``_im2col``: a (B, C, H, W) view of (C, H, W, B) memory."""
    B, C, H, W = shape
    p = k // 2
    dcols = dcols.reshape(C, k, k, H, W, B)
    dx = np.zeros((C, H, W, B), dtype=dcols.dtype)
    for i in range(k):
        # rows of x that kernel row i reads, and the matching rows of dcols
        r0, r1 = max(i - p, 0), min(i - p + H, H)
        for j in range(k):
            c0, c1 = max(j - p, 0), min(j - p + W, W)
            if r0 < r1 and c0 < c1:
                dx[:, r0:r1, c0:c1] += dcols[:, i, j, r0 - i + p : r1 - i + p,
                                             c0 - j + p : c1 - j + p]
    return _bchw(dx)


def _conv_backward(g_mat, x, w, cols):
    """Accumulate dW and dX for the (Cout, H*W*B) output gradient g_mat."""
    wd = w.data
    w_mat = wd.reshape(wd.shape[0], -1)
    if w.requires_grad:
        _accumulate(w, (g_mat @ cols.T).reshape(wd.shape), owned=True)
    if x.requires_grad:
        _accumulate(x, _col2im(w_mat.T @ g_mat, x.data.shape, wd.shape[2]), owned=True)


def conv2d(x, w, b):
    """Same-padded stride-1 convolution; w is (Cout, Cin, k, k) with odd k."""
    xd, wd = x.data, w.data
    k = _check_conv(xd, wd)
    B, _, H, W = xd.shape
    Cout = wd.shape[0]
    cols = _im2col(xd, k)
    y = wd.reshape(Cout, -1) @ cols
    y += b.data[:, None]
    # keep only what backward reads: cols for dW, the weight for dX
    cols = cols if w.requires_grad else None
    def bw(g):
        g_mat = _features_first(g)
        if b.requires_grad:
            _accumulate(b, g_mat.sum(axis=1), owned=True)
        _conv_backward(g_mat, x, w, cols)
    return _result(_bchw(y.reshape(Cout, H, W, B)), (x, w, b), bw)


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


def _first_max_mask(win, y, taken):
    """Boolean mask in win's window layout that marks the element of each
    2x2 block that gets its gradient: the first, in row-major order within
    the block, that equals the block maximum y. Blocks already True in the
    boolean ``taken`` (updated in place) get none."""
    mask = np.empty(win.shape, dtype=bool)
    for i, j in ((0, 0), (0, 1), (1, 0), (1, 1)):
        mask[:, :, i, :, j] = (win[:, :, i, :, j] == y) & ~taken
        taken |= mask[:, :, i, :, j]
    return mask


def max_pool2(x):
    """2x2 max pooling with stride 2; ties route the gradient to the first max."""
    xd = x.data
    _check_pool(xd.shape, "max_pool2")
    win = _windows(_chwb(xd))
    y = _max4(win)
    def bw(g):
        # same memory layout as x
        dx = np.empty_like(xd)
        mask = _first_max_mask(win, y, np.zeros(y.shape, dtype=bool))
        np.multiply(_chwb(g)[:, :, None, :, None, :], mask, out=_windows(_chwb(dx)))
        _accumulate(x, dx, owned=True)
    return _result(_bchw(y), (x,), bw)


def conv_block(x, w, gamma, beta, stats, mode):
    """``max_pool2(relu(batch_norm(conv2d(x, w, 0), ...)))`` as one graph op.

    It pools before the ReLU, which gives the same values and the same
    first-max gradient routing (see the module docstring), on a quarter of
    the elements. There is no conv bias: the batch norm would cancel it.
    Eval is inference: batch norm is folded and the output records nothing.
    """
    xd, wd = x.data, w.data
    k = _check_conv(xd, wd)
    B, _, H, W = xd.shape
    Cout = wd.shape[0]
    _check_bn(Cout, gamma, beta, mode)
    _check_pool(xd.shape, "conv_block")
    if mode == "eval":
        s, shift = _bn_fold(gamma, beta, stats)
        z = (wd.reshape(Cout, -1) * s[:, None]) @ _im2col(xd, k)
        z += shift[:, None]
        pooled = _max4(_windows(z.reshape(Cout, H, W, B)))
        return _result(_bchw(pooled * (pooled > 0.0)), (), None)
    cols = _im2col(xd, k)
    conv = _bchw((wd.reshape(Cout, -1) @ cols).reshape(Cout, H, W, B))
    # free cols now unless backward will read it for dW
    cols = cols if w.requires_grad else None
    z, xhat, gam_inv = _bn_forward(conv, gamma, beta, stats)
    win = _windows(z.reshape(Cout, H, W, B))
    pooled = _max4(win)
    # backward keeps this 1-byte routing mask, not z; the ReLU passes
    # nothing where the block max is not positive
    mask = _first_max_mask(win, pooled, pooled <= 0.0)
    def bw(g):
        dz = _chwb(g)[:, :, None, :, None, :] * mask  # g, or a zero of its sign
        dconv = _bn_backward(dz.reshape(Cout, -1), xhat, gam_inv, gamma, beta,
                             x.requires_grad or w.requires_grad)
        if dconv is not None:
            _conv_backward(dconv, x, w, cols)
    return _result(_bchw(pooled * (pooled > 0.0)), (x, w, gamma, beta), bw)


def global_avg_pool(x):
    xd = x.data
    if xd.ndim != 4:
        raise DimensionError(f"global_avg_pool: expected 4-D input, got {xd.shape}")
    area = xd.shape[2] * xd.shape[3]
    def bw(g):
        # same memory layout as x
        dx = np.empty_like(xd)
        dx[...] = g[:, :, None, None] / area
        _accumulate(x, dx, owned=True)
    return _result(xd.mean(axis=(2, 3)), (x,), bw)


# ---------------------------------------------------------------------------
# loss


def cross_entropy_logits(heads, labels, class_weights, coefs):
    """Per-class weighted cross-entropy of each head's softmax, combined as
    ``coefs[0] * L_0 + coefs[1] * L_1 + ...`` added left to right, as one
    graph op.

    ``heads`` are (B, N) logits of one shape, and per head, via log-sum-exp,
    L_k = -(1/B) sum_b w[y_b] * log softmax(heads[k][b])[y_b].
    Returns the scalar total and the per-head L_k as floats.
    """
    heads = tuple(heads)
    coefs = [float(c) for c in coefs]
    if not heads or len(coefs) != len(heads):
        raise DimensionError(f"cross_entropy_logits: {len(coefs)} coefs for {len(heads)} heads")
    shape = heads[0].data.shape
    if len(shape) != 2 or any(h.data.shape != shape for h in heads):
        raise DimensionError(
            f"cross_entropy_logits: heads {[h.data.shape for h in heads]} not of one (B,N) shape"
        )
    B, N = shape
    labels = np.asarray(labels, dtype=np.intp)
    if labels.shape != (B,):
        raise DimensionError(f"cross_entropy_logits: labels shape {labels.shape} != ({B},)")
    if B and (labels.min() < 0 or labels.max() >= N):
        raise ContractError(f"cross_entropy_logits: labels out of range [0, {N})")
    w = np.asarray(class_weights, dtype=heads[0].data.dtype)[labels]
    rows = np.arange(B)
    lses, losses, total = [], [], None
    for h, c in zip(heads, coefs):
        z = h.data
        m = z.max(axis=1, keepdims=True)
        lse = m + np.log(np.exp(z - m).sum(axis=1, keepdims=True))
        loss = -(w * (z[rows, labels] - lse[:, 0])).sum() / B
        total = loss * c if total is None else total + loss * c
        lses.append(lse)
        losses.append(float(loss))
    def bw(g):
        for h, c, lse in zip(heads, coefs, lses):
            p = np.exp(h.data - lse)
            p[rows, labels] -= 1.0
            _accumulate(h, p * (w * (float(g) * c / B))[:, None], owned=True)
    return _result(np.array(total), heads, bw), losses


# ---------------------------------------------------------------------------
# gradient verification


@dataclass
class GradCheckReport:
    max_rel_error: float
    passed: bool
    worst_index: int = -1


GRAD_CHECK_STEP = 1e-5  # central-difference step
GRAD_CHECK_TOL = 1e-4  # largest relative error that passes


def grad_check(f, x, coords=None):
    """Compare analytic gradients of ``f`` w.r.t. ``x`` to central differences.

    ``f`` must map the Tensor ``x`` (whose data this routine perturbs in
    place) to a scalar Tensor, deterministically. Every coordinate of ``x``
    is checked, or ``coords`` of them drawn without replacement by a
    generator of fixed seed, in increasing order. The relative error uses
    max(|analytic|, |numeric|, 1e-8) as denominator; a NaN analytic
    gradient gives a NaN error, which counts as the worst and fails.
    ``x`` must be float64: float32 cannot resolve central differences at
    ``GRAD_CHECK_STEP``, so any other dtype raises ``ContractError``.
    """
    if x.data.dtype != np.float64:
        raise ContractError(f"grad_check: needs float64 data, got {x.data.dtype}")
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
    checked = range(flat.size)
    if coords is not None and coords < flat.size:
        checked = np.sort(np.random.default_rng(0).choice(flat.size, coords, replace=False))
    worst, worst_i = 0.0, -1
    for i in checked:
        orig = flat[i]
        flat[i] = orig + GRAD_CHECK_STEP
        fp = float(f(x).data)
        flat[i] = orig - GRAD_CHECK_STEP
        fm = float(f(x).data)
        flat[i] = orig
        if not (np.isfinite(fp) and np.isfinite(fm)):
            raise NumericError(f"grad_check: f not finite at coordinate {i}")
        numeric = (fp - fm) / (2.0 * GRAD_CHECK_STEP)
        rel = abs(analytic[i] - numeric) / max(abs(analytic[i]), abs(numeric), 1e-8)
        if rel > worst or (np.isnan(rel) and not np.isnan(worst)):
            worst, worst_i = rel, i
    return GradCheckReport(max_rel_error=worst, passed=worst < GRAD_CHECK_TOL, worst_index=worst_i)
