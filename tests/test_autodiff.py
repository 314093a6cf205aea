import inspect
import tracemalloc
import weakref

import numpy as np
import pytest

from mmfuse import autodiff as ad
from mmfuse.autodiff import RunningStats, Tensor, grad_check
from mmfuse.errors import ContractError, DimensionError, NumericError


def matmul_oracle(a, b):
    """Independent triple-loop matrix multiply."""
    out = np.zeros((a.shape[0], b.shape[1]))
    for i in range(a.shape[0]):
        for j in range(b.shape[1]):
            for k in range(a.shape[1]):
                out[i, j] += a[i, k] * b[k, j]
    return out


def conv2d_oracle(x, w, b, g):
    """Direct nested-loop same-padded convolution and its gradients for
    upstream gradient ``g``: returns (y, dx, dw, db)."""
    B, C, H, W = x.shape
    cout, _, k, _ = w.shape
    p = k // 2
    y = np.zeros((B, cout, H, W))
    dx, dw = np.zeros_like(x), np.zeros_like(w)
    for n in range(B):
        for o in range(cout):
            for r in range(H):
                for c in range(W):
                    y[n, o, r, c] = b[o]
                    for ci in range(C):
                        for i in range(k):
                            for j in range(k):
                                rr, cc = r + i - p, c + j - p
                                if 0 <= rr < H and 0 <= cc < W:
                                    y[n, o, r, c] += w[o, ci, i, j] * x[n, ci, rr, cc]
                                    dw[o, ci, i, j] += g[n, o, r, c] * x[n, ci, rr, cc]
                                    dx[n, ci, rr, cc] += g[n, o, r, c] * w[o, ci, i, j]
    return y, dx, dw, g.sum(axis=(0, 2, 3))


def batch_norm_oracle(x, gamma, beta, stats, mode, g):
    """Batch norm and its x/gamma/beta gradients by the textbook chain rule
    through the batch variance and mean, on the (B, F[, H, W]) layout:
    returns (y, dx, dgamma, dbeta)."""
    axes = (0,) + tuple(range(2, x.ndim))
    bshape = (1, x.shape[1]) + (1,) * (x.ndim - 2)
    n = x.size // x.shape[1]
    gam = gamma.reshape(bshape)
    if mode == "train":
        xc = x - x.mean(axis=axes).reshape(bshape)
        var = (xc * xc).mean(axis=axes)
    else:
        xc = x - stats.mean.reshape(bshape)
        var = stats.var
    inv_b = (1.0 / np.sqrt(var + stats.eps)).reshape(bshape)
    xhat = xc * inv_b
    y = gam * xhat + beta.reshape(bshape)
    dxhat = g * gam
    if mode == "train":
        dvar = (dxhat * xc).sum(axis=axes, keepdims=True) * (-0.5) * inv_b**3
        dmean = -(dxhat * inv_b).sum(axis=axes, keepdims=True) + dvar * (
            -2.0 / n
        ) * xc.sum(axis=axes, keepdims=True)
        dx = dxhat * inv_b + dvar * 2.0 * xc / n + dmean / n
    else:
        dx = dxhat * inv_b
    return y, dx, (g * xhat).sum(axis=axes), g.sum(axis=axes)


def dense_block_oracle(x, w, gamma, beta, stats, mode, relu, g):
    """The unfused chain x @ w -> batch norm -> optional ReLU and its
    x/w/gamma/beta gradients for upstream ``g``: returns
    (y, dx, dw, dgamma, dbeta)."""
    z = matmul_oracle(x, w)
    y = batch_norm_oracle(z, gamma, beta, stats, mode, g)[0]
    if relu:
        g = g * (y > 0.0)
        y = np.maximum(y, 0.0)
    _, dz, dgamma, dbeta = batch_norm_oracle(z, gamma, beta, stats, mode, g)
    return y, matmul_oracle(dz, w.T), matmul_oracle(x.T, dz), dgamma, dbeta


def gating_attention_oracle(qkv_meta, qkv_img, heads, g):
    """Per-coordinate gating attention by loops over samples and heads, with
    the softmax gradient through its full Jacobian: returns the output,
    the (B, heads, s) weights and the gradients of both projections."""
    mq, mk, mv = np.split(qkv_meta, 3, axis=1)
    iq, ik, iv = np.split(qkv_img, 3, axis=1)
    q, k, v = np.hstack([mq, iq]), np.hstack([mk, ik]), np.hstack([mv, iv])
    b, width = q.shape
    s = width // heads
    root = np.sqrt(s)
    out, weights = np.empty_like(q), np.empty((b, heads, s))
    dq, dk, dv = np.empty_like(q), np.empty_like(q), np.empty_like(q)
    for n in range(b):
        for h in range(heads):
            sl = slice(h * s, (h + 1) * s)
            z = k[n, sl] * q[n, sl] / root
            p = np.exp(z - z.max())
            p /= p.sum()
            weights[n, h] = p
            out[n, sl] = p * v[n, sl]
            dv[n, sl] = g[n, sl] * p
            dp = g[n, sl] * v[n, sl]
            dz = (np.diag(p) - np.outer(p, p)) @ dp / root
            dq[n, sl] = dz * k[n, sl]
            dk[n, sl] = dz * q[n, sl]
    dm = qkv_meta.shape[1] // 3
    d_meta = np.hstack([dq[:, :dm], dk[:, :dm], dv[:, :dm]])
    d_img = np.hstack([dq[:, dm:], dk[:, dm:], dv[:, dm:]])
    return out, weights, d_meta, d_img


class TestLinear:
    def test_identity(self):
        x = Tensor([[1.0, 0.0], [0.0, 1.0]])
        out = ad.linear(x, Tensor(np.eye(2)), Tensor([0.0, 0.0]))
        np.testing.assert_array_equal(out.data, [[1.0, 0.0], [0.0, 1.0]])

    def test_against_triple_loop(self):
        x = np.array([[1.0, 1.0]])
        w = np.array([[1.0, 2.0], [3.0, 4.0]])
        out = ad.linear(Tensor(x), Tensor(w), Tensor([0.0, 0.0]))
        np.testing.assert_array_equal(out.data, matmul_oracle(x, w))
        np.testing.assert_array_equal(out.data, [[4.0, 6.0]])

    def test_scalar_case(self):
        out = ad.linear(Tensor([[2.0]]), Tensor([[3.0]]), Tensor([1.0]))
        assert out.data[0, 0] == 7.0

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(DimensionError, match=r"\(1, 3\).*\(2, 2\)"):
            ad.linear(Tensor([[1.0, 2.0, 3.0]]), Tensor(np.zeros((2, 2))), Tensor(np.zeros(2)))

    def test_gradients(self):
        rng = np.random.default_rng(0)
        x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        w = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
        b = Tensor(rng.normal(size=2), requires_grad=True)
        out = ad.linear(x, w, b)
        g = rng.normal(size=(3, 2))
        ad.mul(out, Tensor(g)).sum().backward()
        np.testing.assert_allclose(x.grad, g @ w.data.T, rtol=1e-12)
        np.testing.assert_allclose(w.grad, x.data.T @ g, rtol=1e-12)
        np.testing.assert_allclose(b.grad, g.sum(axis=0), rtol=1e-12)


class TestSoftmax:
    """The one softmax kernel, shared by attention and prediction; it works
    on arrays and has no backward."""

    def test_symmetry(self):
        out = ad._softmax(np.array([0.0, 0.0, 0.0]))
        np.testing.assert_allclose(out, [1 / 3] * 3, rtol=1e-15)

    def test_log_inputs(self):
        out = ad._softmax(np.array([np.log(1.0), np.log(2.0), np.log(3.0)]))
        np.testing.assert_allclose(out, [1 / 6, 2 / 6, 3 / 6], rtol=1e-14)

    def test_saturation(self):
        out = ad._softmax(np.array([100.0, 0.0]))
        assert out[0] >= 1.0 - 1e-12
        assert out[1] < 1e-40

    def test_simplex_property(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            out = ad._softmax(rng.normal(scale=rng.uniform(0.1, 50), size=(4, 7)))
            assert np.all(out >= 0)
            np.testing.assert_allclose(out.sum(axis=-1), 1.0, atol=1e-12)

    def test_nan_input(self):
        with pytest.raises(NumericError, match="softmax"):
            ad._softmax(np.array([np.nan, 0.0]))


class TestBatchNorm:
    def _stats(self, width, eps=1e-5):
        return RunningStats(mean=np.zeros(width), var=np.ones(width), eps=eps)

    def test_constant_batch_is_zeroed(self):
        x = Tensor(np.full((4, 3), 7.0))
        out = ad.batch_norm(
            x, Tensor(np.ones(3)), Tensor(np.zeros(3)), self._stats(3), "train"
        )
        np.testing.assert_array_equal(out.data, np.zeros((4, 3)))

    def test_two_point_batch(self):
        x = Tensor([[1.0], [3.0]])
        out = ad.batch_norm(
            x, Tensor([1.0]), Tensor([0.0]), self._stats(1, eps=1e-12), "train"
        )
        # mean 2, population variance 1
        np.testing.assert_allclose(out.data, [[-1.0], [1.0]], atol=1e-9)

    def test_standardized_batch_unchanged(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(16, 5))
        x = (x - x.mean(axis=0)) / x.std(axis=0)
        out = ad.batch_norm(
            Tensor(x), Tensor(np.ones(5)), Tensor(np.zeros(5)), self._stats(5, eps=1e-12), "train"
        )
        np.testing.assert_allclose(out.data, x, atol=1e-6)

    def test_running_stats_update(self):
        stats = self._stats(2)
        x = np.array([[1.0, 10.0], [3.0, 20.0]])
        ad.batch_norm(Tensor(x), Tensor(np.ones(2)), Tensor(np.zeros(2)), stats, "train")
        np.testing.assert_allclose(stats.mean, 0.9 * 0.0 + 0.1 * x.mean(axis=0))
        np.testing.assert_allclose(stats.var, 0.9 * 1.0 + 0.1 * x.var(axis=0))

    def test_batch_variance_equals_np_var_bitwise(self):
        # the variance reuses the centred input; conv2d outputs are views
        # of channel-major memory, so that layout is covered too
        rng = np.random.default_rng(7)
        cases = [rng.normal(loc=1.5, size=s) for s in ((16, 8, 16, 16), (16, 32))]
        cases.append(rng.normal(size=(32, 16, 4, 4)).transpose(1, 0, 2, 3))
        for x in cases:
            stats = self._stats(x.shape[1])
            width = x.shape[1]
            ad.batch_norm(Tensor(x), Tensor(np.ones(width)), Tensor(np.zeros(width)),
                          stats, "train")
            var = x.var(axis=(0,) + tuple(range(2, x.ndim)))
            np.testing.assert_array_equal(stats.var, (1.0 - 0.1) * 1.0 + 0.1 * var)

    def test_eval_uses_running_stats(self):
        stats = RunningStats(mean=np.array([2.0]), var=np.array([4.0]), eps=0.0)
        out = ad.batch_norm(
            Tensor([[4.0]]), Tensor([3.0]), Tensor([1.0]), stats, "eval"
        )
        # (4-2)/2 * 3 + 1
        np.testing.assert_allclose(out.data, [[4.0]])

    def test_train_backward_full_gradient(self):
        rng = np.random.default_rng(4)
        gamma = Tensor(rng.uniform(0.5, 1.5, size=4), requires_grad=True)
        beta = Tensor(rng.normal(size=4), requires_grad=True)
        stats = self._stats(4)
        x = Tensor(rng.normal(size=(6, 4)), requires_grad=True)
        coeff = Tensor(rng.normal(size=(6, 4)))

        def f(_t):
            return ad.mul(ad.batch_norm(x, gamma, beta, stats, "train"), coeff).sum()

        for target in (x, gamma, beta):
            rep = grad_check(f, target)
            assert rep.passed, rep.max_rel_error

    def test_sum_of_normalized_batch_has_zero_input_gradient(self):
        # batch statistics absorb any uniform shift, so d(sum)/dx vanishes
        rng = np.random.default_rng(5)
        x = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
        out = ad.batch_norm(
            x, Tensor(np.ones(3)), Tensor(np.zeros(3)), self._stats(3), "train"
        )
        out.sum().backward()
        np.testing.assert_allclose(x.grad, np.zeros_like(x.data), atol=1e-9)

    def test_4d_input_normalizes_per_channel(self):
        rng = np.random.default_rng(6)
        x = rng.normal(loc=3.0, scale=2.0, size=(4, 2, 3, 3))
        out = ad.batch_norm(
            Tensor(x), Tensor(np.ones(2)), Tensor(np.zeros(2)), self._stats(2), "train"
        )
        np.testing.assert_allclose(out.data.mean(axis=(0, 2, 3)), 0.0, atol=1e-12)
        np.testing.assert_allclose(out.data.var(axis=(0, 2, 3)), 1.0, atol=1e-4)


def channel_major(a):
    """The same values as the (B, C, H, W) array ``a``, in the memory order
    conv2d returns: a (B, C, H, W) view of a C-contiguous (C, H, W, B) array."""
    return np.ascontiguousarray(a.transpose(1, 2, 3, 0)).transpose(3, 0, 1, 2)


def is_channel_major(a):
    """True when ``a`` is a (B, C, H, W) view of C-contiguous (C, H, W, B) memory."""
    return a.transpose(1, 2, 3, 0).flags.c_contiguous


def assert_close_rel(got, want, rel=1e-12):
    """Every element within ``rel`` times the largest magnitude of ``want``."""
    assert got.shape == want.shape
    np.testing.assert_allclose(got, want, rtol=0, atol=rel * np.abs(want).max())


def assert_constant(t):
    """``t`` records no graph: no gradient, no parents, no backward."""
    assert not t.requires_grad and t._parents == () and t._backward is None


def conv_block_oracle(x, w, gamma, beta, stats):
    """Eval-mode conv -> batch norm -> ReLU -> 2x2 max-pool by the nested-loop
    convolution and the textbook batch norm."""
    B, _, H, W = x.shape
    cout = w.shape[0]
    y = conv2d_oracle(x, w, np.zeros(cout), np.zeros((B, cout, H, W)))[0]
    z = batch_norm_oracle(y, gamma, beta, stats, "eval", np.zeros_like(y))[0]
    return np.maximum(z, 0.0).reshape(B, cout, H // 2, 2, W // 2, 2).max(axis=(3, 5))


class TestBatchNormAgainstOracle:
    # (B, F), batch-major (B, C, H, W) and conv's channel-major memory
    INPUTS = {
        "2d": lambda rng: rng.normal(loc=0.7, scale=1.3, size=(12, 5)),
        "batch_major": lambda rng: rng.normal(loc=-0.4, size=(6, 3, 4, 4)),
        "channel_major": lambda rng: channel_major(rng.normal(loc=0.3, size=(6, 3, 4, 4))),
    }

    @pytest.mark.parametrize("layout", sorted(INPUTS))
    @pytest.mark.parametrize("mode", ["train", "eval"])
    @pytest.mark.parametrize("grad_layout", ["batch_major", "features_first"])
    def test_matches_chain_rule(self, layout, mode, grad_layout):
        rng = np.random.default_rng(sorted(self.INPUTS).index(layout))
        xd = self.INPUTS[layout](rng)
        width = xd.shape[1]
        g = rng.normal(size=xd.shape)
        if grad_layout == "features_first":
            g = g.T.copy().T if g.ndim == 2 else channel_major(g)

        mean0, var0 = rng.normal(scale=0.3, size=width), rng.uniform(0.5, 2.0, size=width)

        def running():
            return RunningStats(mean=mean0.copy(), var=var0.copy())

        x = Tensor(xd, requires_grad=True)
        gamma = Tensor(rng.uniform(0.5, 1.5, size=width), requires_grad=True)
        beta = Tensor(rng.normal(size=width), requires_grad=True)
        stats, oracle_stats = running(), running()
        y, dx, dgamma, dbeta = batch_norm_oracle(
            xd, gamma.data, beta.data, oracle_stats, mode, g
        )
        out = ad.batch_norm(x, gamma, beta, stats, mode)
        if mode == "eval":
            # eval folds batch norm into x * s + (beta - mean * s) and records
            # nothing: it rounds differently from the oracle's x-hat
            assert_constant(out)
            assert_close_rel(out.data, y)
            return
        # the forward is the same elementwise arithmetic, so it is exact
        np.testing.assert_array_equal(out.data, y)
        ad.mul(out, Tensor(g)).sum().backward()
        assert_close_rel(x.grad, dx)
        assert_close_rel(gamma.grad, dgamma)
        assert_close_rel(beta.grad, dbeta)

    def test_gradient_keeps_channel_major_layout(self):
        # conv -> batch norm -> relu -> pool hands conv a gradient it can
        # read as (C, H*W*B) without a copy
        rng = np.random.default_rng(12)
        x = Tensor(rng.normal(size=(4, 2, 6, 6)), requires_grad=True)
        w = Tensor(rng.normal(size=(3, 2, 3, 3)), requires_grad=True)
        conv = ad.conv2d(x, w, Tensor(np.zeros(3)))
        norm = ad.batch_norm(
            conv, Tensor(np.ones(3), requires_grad=True),
            Tensor(np.zeros(3), requires_grad=True),
            RunningStats(mean=np.zeros(3), var=np.ones(3)), "train",
        )
        act = ad.relu(norm)
        pooled = ad.max_pool2(act)
        ad.mul(pooled, Tensor(rng.normal(size=pooled.shape))).sum().backward()
        for t in (conv, norm, act):
            assert is_channel_major(t.data)
            assert is_channel_major(t.grad)
        assert is_channel_major(pooled.data)
        assert is_channel_major(x.grad)


class TestConvBlock:
    """conv_block against the four-op chain it fuses."""

    COUT = 4

    def _inputs(self, k, mode, x_grad):
        rng = np.random.default_rng(k * 10 + (mode == "train"))
        xd = rng.normal(size=(2, 3, 8, 8))
        # a zero patch gives exactly zero conv outputs: tied block maxima
        xd[0, :, :6, :6] = 0.0
        x = Tensor(xd, requires_grad=x_grad)
        w = Tensor(rng.normal(size=(self.COUT, 3, k, k)), requires_grad=True)
        gamma = Tensor(rng.uniform(0.5, 1.5, size=self.COUT), requires_grad=True)
        # large |beta| makes some channels mostly positive, others negative
        beta = Tensor(np.array([2.0, -2.0, 0.3, -0.3]), requires_grad=True)
        return x, w, gamma, beta

    def _stats(self):
        return RunningStats(mean=np.array([0.2, -0.1, 0.0, 0.4]),
                            var=np.array([1.5, 0.7, 2.0, 1.0]))

    @pytest.mark.parametrize("k", [3, 5])
    @pytest.mark.parametrize("mode", ["train", "eval"])
    @pytest.mark.parametrize("x_grad", [True, False])
    def test_matches_four_op_chain(self, k, mode, x_grad):
        fused_in, chain_in = self._inputs(k, mode, x_grad), self._inputs(k, mode, x_grad)
        fused_stats, chain_stats = self._stats(), self._stats()
        fused = ad.conv_block(*fused_in, fused_stats, mode)
        x, w, gamma, beta = chain_in
        norm = ad.batch_norm(ad.conv2d(x, w, Tensor(np.zeros(self.COUT))),
                             gamma, beta, chain_stats, mode)
        chain = ad.max_pool2(ad.relu(norm))

        # the data covers tied block maxima and all-negative blocks
        blocks = norm.data.reshape(2, self.COUT, 4, 2, 4, 2).transpose(0, 1, 2, 4, 3, 5)
        blocks = blocks.reshape(2, self.COUT, 4, 4, 4)
        top = blocks.max(axis=-1)
        assert ((blocks == top[..., None]).sum(axis=-1) > 1)[top > 0].any()
        assert (top < 0).any()

        if mode == "eval":
            # eval folds batch norm into the weight and records nothing
            assert_constant(fused)
            assert_close_rel(fused.data, conv_block_oracle(
                x.data, w.data, gamma.data, beta.data, self._stats()))
            return
        np.testing.assert_array_equal(fused.data, chain.data)
        np.testing.assert_array_equal(fused_stats.mean, chain_stats.mean)
        np.testing.assert_array_equal(fused_stats.var, chain_stats.var)
        g = np.random.default_rng(k).normal(size=fused.shape)
        ad.mul(fused, Tensor(g)).sum().backward()
        ad.mul(chain, Tensor(g)).sum().backward()
        for got, want in zip(fused_in, chain_in):
            if want.requires_grad:
                assert_close_rel(got.grad, want.grad)
            else:
                assert got.grad is None

    def test_output_and_input_gradient_are_channel_major(self):
        x, w, gamma, beta = self._inputs(3, "train", True)
        h = ad.conv_block(x, w, gamma, beta, self._stats(), "train")
        w2 = Tensor(np.random.default_rng(1).normal(size=(2, self.COUT, 3, 3)),
                    requires_grad=True)
        out = ad.conv_block(h, w2, Tensor(np.ones(2), requires_grad=True),
                            Tensor(np.zeros(2), requires_grad=True),
                            RunningStats(mean=np.zeros(2), var=np.ones(2)), "train")
        ad.global_avg_pool(out).sum().backward()
        for a in (h.data, h.grad, out.data, out.grad):
            assert is_channel_major(a)

    def test_no_graph_keeps_no_parents(self):
        inputs = self._inputs(3, "train", True)
        with ad.no_graph():
            out = ad.conv_block(*inputs, self._stats(), "train")
        assert not out.requires_grad and out._parents == () and out._backward is None
        recorded = ad.conv_block(*inputs, self._stats(), "train")
        assert recorded._parents
        np.testing.assert_array_equal(out.data, recorded.data)

    def test_recorded_block_holds_a_one_byte_routing_mask(self):
        """After a recorded train-mode forward at the benchmark's block-0
        shapes (batch 16, 3 -> 8 channels, 16x16), the node holds its im2col
        columns (read for dW), x-hat, its output and a 1-byte max-pool
        routing mask per pre-pool element, not the float64 pre-pool
        activation (256 KiB here), which would exceed the 16 KiB of slack
        allowed for small arrays and the node's objects."""
        B, C, H, W, cout = 16, 3, 16, 16, 8
        rng = np.random.default_rng(0)
        x = Tensor(rng.normal(size=(B, C, H, W)))
        w = Tensor(rng.normal(size=(cout, C, 3, 3)), requires_grad=True)
        gamma = Tensor(rng.uniform(0.5, 1.5, size=cout), requires_grad=True)
        beta = Tensor(rng.normal(size=cout), requires_grad=True)
        stats = RunningStats(mean=np.zeros(cout), var=np.ones(cout))
        ad.conv_block(x, w, gamma, beta, stats, "train")  # warm up
        tracemalloc.start()
        try:
            out = ad.conv_block(x, w, gamma, beta, stats, "train")
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        pre_pool = cout * H * W * B
        cols = C * 9 * H * W * B
        assert out._backward is not None
        assert held <= 8 * (cols + pre_pool + out.data.size) + pre_pool + 16 * 1024

    def test_rejects_odd_spatial_size(self):
        x = Tensor(np.zeros((2, 3, 5, 6)))
        w = Tensor(np.zeros((self.COUT, 3, 3, 3)))
        with pytest.raises(DimensionError, match="even H, W"):
            ad.conv_block(x, w, Tensor(np.ones(self.COUT)), Tensor(np.zeros(self.COUT)),
                          self._stats(), "train")


class TestConcatSplit:
    def test_concat_vectors(self):
        out = ad.concat(Tensor([1.0, 2.0]), Tensor([3.0]))
        np.testing.assert_array_equal(out.data, [1.0, 2.0, 3.0])

    def test_concat_empty_left(self):
        out = ad.concat(Tensor(np.zeros(0)), Tensor([5.0]))
        np.testing.assert_array_equal(out.data, [5.0])

    def test_concat_gradient_split(self):
        a = Tensor([1.0, 2.0, 3.0], requires_grad=True)
        b = Tensor([4.0], requires_grad=True)
        ad.concat(a, b).sum().backward()
        np.testing.assert_array_equal(a.grad, np.ones(3))
        np.testing.assert_array_equal(b.grad, np.ones(1))


class TestDenseBlock:
    """dense_block against the unfused chain, computed in plain numpy."""

    def _inputs(self, x_grad, seed=0):
        rng = np.random.default_rng(seed)
        x = Tensor(rng.normal(size=(6, 4)), requires_grad=x_grad)
        w = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
        gamma = Tensor(rng.uniform(0.5, 1.5, size=5), requires_grad=True)
        # beta of both signs leaves some features mostly cut by the ReLU
        beta = Tensor(np.array([1.0, -1.0, 0.2, -0.2, 0.0]), requires_grad=True)
        return x, w, gamma, beta

    def _stats(self):
        return RunningStats(mean=np.array([0.3, -0.2, 0.0, 0.5, -0.4]),
                            var=np.array([1.4, 0.6, 2.0, 1.0, 0.8]))

    @pytest.mark.parametrize("relu", [False, True])
    @pytest.mark.parametrize("mode", ["train", "eval"])
    @pytest.mark.parametrize("x_grad", [True, False])
    def test_matches_unfused_chain(self, relu, mode, x_grad):
        x, w, gamma, beta = self._inputs(x_grad)
        stats, ref_stats = self._stats(), self._stats()
        out = ad.dense_block(x, w, gamma, beta, stats, mode, relu)
        g = np.random.default_rng(1).normal(size=out.shape)
        y, dx, dw, dgamma, dbeta = dense_block_oracle(
            x.data, w.data, gamma.data, beta.data, ref_stats, mode, relu, g
        )
        assert_close_rel(out.data, y)
        if relu:
            assert (out.data == 0.0).any() and (out.data > 0.0).any()
        if mode == "eval":
            # eval folds batch norm into the weight and records nothing
            assert_constant(out)
            return
        ad.mul(out, Tensor(g)).sum().backward()
        assert_close_rel(w.grad, dw)
        assert_close_rel(gamma.grad, dgamma)
        assert_close_rel(beta.grad, dbeta)
        if x_grad:
            assert_close_rel(x.grad, dx)
        else:
            assert x.grad is None

    def test_fixed_weight_still_trains_gamma_and_beta(self):
        x, w, gamma, beta = self._inputs(False)
        w.requires_grad = False
        out = ad.dense_block(x, w, gamma, beta, self._stats(), "train", True)
        ad.mul(out, out).sum().backward()
        assert w.grad is None and gamma.grad.any() and beta.grad.any()

    def test_running_stats_match_batch_norm(self):
        x, w, gamma, beta = self._inputs(False)
        fused, chain = self._stats(), self._stats()
        ad.dense_block(x, w, gamma, beta, fused, "train", True)
        ad.batch_norm(Tensor(x.data @ w.data), gamma, beta, chain, "train")
        np.testing.assert_array_equal(fused.mean, chain.mean)
        np.testing.assert_array_equal(fused.var, chain.var)

    def test_shape_mismatch_names_both_shapes(self):
        x, w, gamma, beta = self._inputs(False)
        with pytest.raises(DimensionError, match=r"\(6, 3\).*\(4, 5\)"):
            ad.dense_block(Tensor(np.zeros((6, 3))), w, gamma, beta, self._stats(),
                           "train", False)


class TestEvalFold:
    """Eval is inference: batch norm is folded and the output records
    nothing, inside ``no_graph`` or not, also when every input needs a
    gradient. The folded values, here with a negative gamma, are within
    1e-12 of the largest value of the numpy oracle."""

    def _bn(self, rng, width):
        gamma = rng.normal(size=width)
        assert (gamma < 0).any()
        stats = RunningStats(mean=rng.normal(size=width), var=rng.uniform(0.3, 2.0, width))
        return (Tensor(gamma, requires_grad=True),
                Tensor(rng.normal(size=width), requires_grad=True), stats)

    def _check(self, block, want, *args):
        out = block(*args)
        with ad.no_graph():
            bare = block(*args)
        assert_constant(out)
        assert_constant(bare)
        np.testing.assert_array_equal(out.data, bare.data)
        assert_close_rel(out.data, want)

    @pytest.mark.parametrize("k", [3, 5])
    def test_conv_block(self, k):
        rng = np.random.default_rng(20 + k)
        x = Tensor(rng.normal(size=(5, 3, 6, 6)), requires_grad=True)
        w = Tensor(rng.normal(size=(4, 3, k, k)), requires_grad=True)
        gamma, beta, stats = self._bn(rng, 4)
        want = conv_block_oracle(x.data, w.data, gamma.data, beta.data, stats)
        self._check(ad.conv_block, want, x, w, gamma, beta, stats, "eval")

    @pytest.mark.parametrize("relu", [False, True])
    def test_dense_block(self, relu):
        rng = np.random.default_rng(30 + relu)
        x = Tensor(rng.normal(size=(7, 4)), requires_grad=True)
        w = Tensor(rng.normal(size=(4, 6)), requires_grad=True)
        gamma, beta, stats = self._bn(rng, 6)
        want = dense_block_oracle(x.data, w.data, gamma.data, beta.data, stats, "eval",
                                  relu, np.zeros((7, 6)))[0]
        self._check(ad.dense_block, want, x, w, gamma, beta, stats, "eval", relu)

    @pytest.mark.parametrize("shape", [(7, 6), (3, 6, 4, 4)], ids=["2d", "4d"])
    def test_batch_norm(self, shape):
        rng = np.random.default_rng(40 + len(shape))
        x = Tensor(rng.normal(size=shape), requires_grad=True)
        gamma, beta, stats = self._bn(rng, 6)
        want = batch_norm_oracle(x.data, gamma.data, beta.data, stats, "eval",
                                 np.zeros(shape))[0]
        self._check(ad.batch_norm, want, x, gamma, beta, stats, "eval")


class TestGatingAttention:
    """gating_attention against per-head loops with the softmax Jacobian."""

    def _inputs(self, dm, di, seed=0):
        rng = np.random.default_rng(seed)
        return (Tensor(rng.normal(scale=1.5, size=(3, 3 * dm)), requires_grad=True),
                Tensor(rng.normal(scale=1.5, size=(3, 3 * di)), requires_grad=True))

    @pytest.mark.parametrize("dm, di, heads", [(2, 4, 1), (3, 5, 8)])
    def test_matches_unfused_chain(self, dm, di, heads):
        meta, img = self._inputs(dm, di)
        out, weights = ad.gating_attention(meta, img, heads)
        g = np.random.default_rng(1).normal(size=out.shape)
        y, w_ref, d_meta, d_img = gating_attention_oracle(meta.data, img.data, heads, g)
        assert_close_rel(out.data, y)
        assert_close_rel(weights, w_ref)
        ad.mul(out, Tensor(g)).sum().backward()
        assert_close_rel(meta.grad, d_meta)
        assert_close_rel(img.grad, d_img)

    def test_reads_thirds_metadata_first(self):
        # zero queries give uniform weights over one head of s = 2
        meta = Tensor([[0.0, 3.0, 4.0]])
        img = Tensor([[0.0, 6.0, 7.0]])
        out, weights = ad.gating_attention(meta, img, 1)
        np.testing.assert_array_equal(weights, [[[0.5, 0.5]]])
        np.testing.assert_array_equal(out.data, [[2.0, 3.5]])

    def test_gradient_adds_to_other_uses(self):
        meta, img = self._inputs(1, 2)
        alone = Tensor(img.data, requires_grad=True)
        ad.gating_attention(Tensor(meta.data), alone, 1)[0].sum().backward()
        out, _ = ad.gating_attention(meta, img, 1)
        ad.add(out.sum(), ad.mul(img, img).sum()).backward()
        np.testing.assert_allclose(img.grad, alone.grad + 2.0 * img.data, rtol=1e-14)

    def test_non_finite_softmax_input_rejected(self):
        meta = Tensor([[np.nan, 1.0, 1.0]])
        with pytest.raises(NumericError):
            ad.gating_attention(meta, Tensor(np.ones((1, 3))), 1)


def _ce_oracle(z, labels, w):
    """Plain-numpy weighted cross-entropy of one (B, N) logit array."""
    m = z.max(axis=1, keepdims=True)
    lse = m + np.log(np.exp(z - m).sum(axis=1, keepdims=True))
    logp = z[np.arange(len(labels)), labels] - lse[:, 0]
    return -(w[labels] * logp).sum() / len(labels)


CE_WEIGHTS = np.array([2.0, 1.0, 0.5])


def _ce_heads(k):
    """k (4, 3) logit tensors that need gradients."""
    rng = np.random.default_rng(7)
    return [Tensor(rng.normal(size=(4, 3)), requires_grad=True) for _ in range(k)]


class TestCrossEntropyLogits:
    @pytest.mark.parametrize("coefs", [(1.0,), (0.25, 0.75, 1.0)], ids=["one_head", "three_heads"])
    def test_forward_is_the_per_head_sum_bit_for_bit(self, coefs):
        heads, labels = _ce_heads(len(coefs)), np.array([0, 2, 1, 2])
        total, losses = ad.cross_entropy_logits(heads, labels, CE_WEIGHTS, coefs)
        expected = [_ce_oracle(h.data, labels, CE_WEIGHTS) for h in heads]
        assert losses == expected
        acc = expected[0] * coefs[0]
        for loss, c in zip(expected[1:], coefs[1:]):
            acc = acc + loss * c
        assert total.data.shape == () and float(total.data) == acc

    def test_forward_matches_log_of_softmax(self):
        (h,), labels = _ce_heads(1), np.array([0, 2, 1, 2])
        p = np.exp(h.data) / np.exp(h.data).sum(axis=1, keepdims=True)
        expected = -(CE_WEIGHTS[labels] * np.log(p[np.arange(4), labels])).mean()
        _, (loss,) = ad.cross_entropy_logits([h], labels, CE_WEIGHTS, [1.0])
        np.testing.assert_allclose(loss, expected, rtol=1e-12)

    def test_coefficient_count_must_match_heads(self):
        heads = _ce_heads(3)
        with pytest.raises(DimensionError):
            ad.cross_entropy_logits(heads, [0, 1, 2, 0], CE_WEIGHTS, (0.5, 0.5))
        with pytest.raises(DimensionError):
            ad.cross_entropy_logits(heads[:1], [0, 1, 2, 0], CE_WEIGHTS, (0.5, 0.5))
        with pytest.raises(DimensionError):
            ad.cross_entropy_logits([], [0, 1, 2, 0], CE_WEIGHTS, ())

    def test_heads_of_different_shapes_rejected(self):
        a = _ce_heads(1)[0]
        with pytest.raises(DimensionError):
            ad.cross_entropy_logits(
                [a, Tensor(np.zeros((4, 2)))], [0, 1, 1, 0], CE_WEIGHTS, (1.0, 1.0)
            )
        with pytest.raises(DimensionError):
            ad.cross_entropy_logits([Tensor(np.zeros(3))], [0], CE_WEIGHTS, (1.0,))
        with pytest.raises(DimensionError):
            ad.cross_entropy_logits([a], [0, 1], CE_WEIGHTS, (1.0,))

    @pytest.mark.parametrize("bad", [-1, 3])
    def test_label_out_of_range_rejected(self, bad):
        # -1 would otherwise score the last class and 3 would index past it
        with pytest.raises(ContractError, match="out of range"):
            ad.cross_entropy_logits([Tensor(np.zeros((2, 3)))], [0, bad], CE_WEIGHTS, (1.0,))


class TestBackward:
    def test_power_rule(self):
        x = Tensor([3.0], requires_grad=True)
        ad.mul(x, x).sum().backward()
        np.testing.assert_array_equal(x.grad, [6.0])

    def test_fanout_accumulation(self):
        x = Tensor([1.0], requires_grad=True)
        ad.add(x, x).sum().backward()
        np.testing.assert_array_equal(x.grad, [2.0])

    def test_k_fold_fanout(self):
        x = Tensor([2.0], requires_grad=True)
        ad.add(ad.add(x, x), x).sum().backward()
        np.testing.assert_array_equal(x.grad, [3.0])

    def test_weighted_ce_gradient_closed_form(self):
        labels = np.array([0, 2, 1, 2])
        for coefs in ((1.0,), (0.25, 0.75, 1.0)):
            heads = _ce_heads(len(coefs))
            ad.cross_entropy_logits(heads, labels, CE_WEIGHTS, coefs)[0].backward()
            for h, c in zip(heads, coefs):
                z = h.data
                p = np.exp(z - z.max(axis=1, keepdims=True))
                p /= p.sum(axis=1, keepdims=True)
                y = np.zeros_like(p)
                y[np.arange(4), labels] = 1.0
                expected = c * (p - y) * CE_WEIGHTS[labels][:, None] / 4.0
                np.testing.assert_allclose(h.grad, expected, rtol=1e-12, atol=1e-15)
            # and against central finite differences, step 1e-5, head by head
            for j, h in enumerate(heads):
                def f(t, j=j, heads=heads, coefs=coefs):
                    return ad.cross_entropy_logits(
                        heads[:j] + [t] + heads[j + 1:], labels, CE_WEIGHTS, coefs
                    )[0]
                rep = grad_check(f, h)
                assert rep.passed, rep.max_rel_error

    def test_non_scalar_loss_rejected(self):
        with pytest.raises(ContractError):
            Tensor([1.0, 2.0], requires_grad=True).backward()

    def test_each_node_visited_once(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        mid = ad.mul(x, Tensor([2.0, 2.0]))
        calls = []
        orig = mid._backward

        def counting(g):
            calls.append(1)
            orig(g)

        mid._backward = counting
        ad.add(mid, mid).sum().backward()
        assert len(calls) == 1
        np.testing.assert_array_equal(x.grad, [4.0, 4.0])

    def test_deterministic_replay(self):
        def build():
            rng = np.random.default_rng(8)
            x = Tensor(rng.normal(size=(5, 4)), requires_grad=True)
            w = Tensor(rng.normal(size=(4, 9)), requires_grad=True)
            qkv = ad.linear(x, w, Tensor(np.zeros(9)))
            out, _ = ad.gating_attention(qkv, qkv, 2)
            ad.mul(out, out).sum().backward()
            return x.grad.copy(), w.grad.copy()

        gx1, gw1 = build()
        gx2, gw2 = build()
        assert np.array_equal(gx1, gx2) and np.array_equal(gw1, gw2)


class TestAccumulate:
    def test_first_gradient_is_a_copy(self):
        # concat hands slices of its output gradient on as views; the parent
        # must own its gradient so that later accumulation cannot reach the child
        x = Tensor(np.ones((2, 3)), requires_grad=True)
        y = ad.concat(x, Tensor(np.zeros((2, 0))))
        ad.add(y.sum(), y.sum()).backward()
        assert not np.shares_memory(x.grad, y.grad)
        np.testing.assert_array_equal(x.grad, np.full((2, 3), 2.0))

    @pytest.mark.parametrize("op", [ad.add, ad.concat])
    def test_shared_gradients_are_not_aliased(self, op):
        # add hands one array to both parents, concat two slices of its
        # output gradient
        a, b = (Tensor(np.ones((2, 3)), requires_grad=True) for _ in range(2))
        out = op(a, b)
        ad.mul(out, Tensor(np.full(out.shape, 2.0))).sum().backward()
        b_grad, out_grad = b.grad.copy(), out.grad.copy()
        a.grad += 5.0
        np.testing.assert_array_equal(b.grad, b_grad)
        np.testing.assert_array_equal(out.grad, out_grad)

    def test_broadcast_gradient_is_copied(self):
        # Tensor.sum hands on a read-only broadcast of its scalar gradient
        x = Tensor(np.ones((2, 3)), requires_grad=True)
        x.sum().backward()
        x.grad += 1.0
        np.testing.assert_array_equal(x.grad, np.full((2, 3), 2.0))


def _conv_graph():
    """(loss, weights, mid, a weak reference to mid's data) of a two-block
    image graph, mid being the first conv_block's output."""
    rng = np.random.default_rng(21)
    x = Tensor(rng.normal(size=(2, 3, 8, 8)))
    weights = [
        Tensor(rng.normal(size=shape), requires_grad=True)
        for shape in ((4, 3, 3, 3), (4,), (4,), (2, 4, 3, 3), (2,), (2,))
    ]
    w0, g0, b0, w1, g1, b1 = weights
    mid = ad.conv_block(x, w0, g0, b0, _stats(4), "train")
    out = ad.conv_block(mid, w1, g1, b1, _stats(2), "train")
    loss = ad.mul(ad.global_avg_pool(out), Tensor(rng.normal(size=(2, 2)))).sum()
    # the output holds its data for as long as it lives
    return loss, weights, mid, weakref.ref(mid.data)


class TestFreedGraph:
    def test_backward_frees_op_outputs_the_caller_does_not_hold(self):
        loss, _, mid, mid_data = _conv_graph()
        del mid
        assert mid_data() is not None
        loss.backward()
        assert mid_data() is None
        assert loss._parents == ()

    def test_second_backward_on_one_root_raises_and_changes_nothing(self):
        loss, weights, _, _ = _conv_graph()
        loss.backward()
        grads = [w.grad.copy() for w in weights]
        with pytest.raises(ContractError, match="freed"):
            loss.backward()
        for w, g in zip(weights, grads):
            np.testing.assert_array_equal(w.grad, g)
        np.testing.assert_array_equal(loss.grad, 1.0)

    def test_backward_on_a_leaf_leaves_it_a_leaf(self):
        x = Tensor([3.0], requires_grad=True)
        x.backward()
        assert x._backward is None
        ad.mul(x, x).sum().backward()
        np.testing.assert_array_equal(x.grad, [7.0])

    def test_graph_built_on_a_freed_node_raises_and_changes_nothing(self):
        loss, weights, mid, _ = _conv_graph()
        loss.backward()
        grads = [w.grad.copy() for w in weights]
        mid_grad = mid.grad.copy()
        # walked from its root, the new graph reaches this leaf before mid
        scale = Tensor(np.ones((2, 4)), requires_grad=True)
        again = ad.mul(ad.global_avg_pool(mid), scale).sum()
        with pytest.raises(ContractError, match="freed"):
            again.backward()
        for w, g in zip(weights, grads):
            np.testing.assert_array_equal(w.grad, g)
        np.testing.assert_array_equal(mid.grad, mid_grad)
        assert scale.grad is None and again.grad is None


class TestNoGraph:
    def _graph(self):
        x = Tensor(np.ones((2, 3)), requires_grad=True)
        return ad.relu(ad.mul(x, x))

    def test_ops_inside_record_nothing(self):
        with ad.no_graph():
            out = self._graph()
        assert not out.requires_grad and out._parents == () and out._backward is None
        np.testing.assert_array_equal(out.data, self._graph().data)

    def test_state_restored_on_exit_and_on_exception(self):
        with ad.no_graph():
            pass
        assert self._graph().requires_grad
        with pytest.raises(ValueError), ad.no_graph():
            raise ValueError("inside")
        assert self._graph().requires_grad

    def test_nested_blocks(self):
        block = ad.no_graph()
        for inner in (ad.no_graph(), block):
            with block:
                with inner:
                    assert not self._graph().requires_grad
                assert not self._graph().requires_grad
            assert self._graph().requires_grad

    def test_is_not_a_graph_op(self):
        assert not inspect.isfunction(ad.no_graph)


def _t(shape, requires_grad):
    return Tensor(np.random.default_rng(0).normal(size=shape), requires_grad=requires_grad)


def _stats(n):
    return RunningStats(mean=np.zeros(n), var=np.ones(n))


# one call per graph op; each builds every tensor input with the given requires_grad
OP_CASES = {
    "add": lambda r: ad.add(_t((2, 3), r), _t((2, 3), r)),
    "mul": lambda r: ad.mul(_t((2, 3), r), _t((2, 3), r)),
    "relu": lambda r: ad.relu(_t((2, 3), r)),
    "linear": lambda r: ad.linear(_t((2, 3), r), _t((3, 4), r), _t((4,), r)),
    "concat": lambda r: ad.concat(_t((2, 3), r), _t((2, 1), r)),
    "gating_attention": lambda r: ad.gating_attention(
        _t((2, 6), r), _t((2, 3), r), 3
    )[0],
    "batch_norm": lambda r: ad.batch_norm(
        _t((4, 3), r), _t((3,), r), _t((3,), r), _stats(3), "train"
    ),
    "dense_block": lambda r: ad.dense_block(
        _t((4, 2), r), _t((2, 3), r), _t((3,), r), _t((3,), r), _stats(3), "train", True
    ),
    "conv2d": lambda r: ad.conv2d(_t((2, 1, 4, 4), r), _t((2, 1, 3, 3), r), _t((2,), r)),
    "max_pool2": lambda r: ad.max_pool2(_t((2, 1, 4, 4), r)),
    "conv_block": lambda r: ad.conv_block(
        _t((2, 1, 4, 4), r), _t((2, 1, 3, 3), r), _t((2,), r), _t((2,), r),
        _stats(2), "train",
    ),
    "global_avg_pool": lambda r: ad.global_avg_pool(_t((2, 1, 4, 4), r)),
    "cross_entropy_logits": lambda r: ad.cross_entropy_logits(
        (_t((2, 3), r), _t((2, 3), r)), [0, 2], np.ones(3), (0.5, 1.0)
    )[0],
    "Tensor.sum": lambda r: _t((2, 3), r).sum(),
}


def graph_ops():
    """Public functions defined in ``mmfuse.autodiff`` other than
    ``grad_check``, the rule perfbench traces ops by, plus ``Tensor.sum``."""
    return {
        name for name, fn in vars(ad).items()
        if inspect.isfunction(fn) and fn.__module__ == ad.__name__
        and not name.startswith("_") and name != "grad_check"
    } | {"Tensor.sum"}


def _outputs(result):
    return result if isinstance(result, tuple) else (result,)


class TestOpProtocol:
    def test_cases_cover_every_op(self):
        assert set(OP_CASES) == graph_ops()

    @pytest.mark.parametrize("op", sorted(OP_CASES))
    def test_records_parents_and_backward_only_when_needed(self, op):
        for out in _outputs(OP_CASES[op](True)):
            assert out.requires_grad and callable(out._backward)
            assert out._parents and all(isinstance(p, Tensor) for p in out._parents)
        with ad.no_graph():
            unrecorded = _outputs(OP_CASES[op](True))
        for out in _outputs(OP_CASES[op](False)) + unrecorded:
            assert not out.requires_grad and out._parents == () and out._backward is None


class TestGradCheck:
    def test_sum_of_squares_is_exact(self):
        rng = np.random.default_rng(9)
        x = Tensor(rng.normal(size=7), requires_grad=True)
        rep = grad_check(lambda t: ad.mul(t, t).sum(), x)
        assert rep.max_rel_error < 1e-8

    def test_rejects_non_scalar(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ContractError):
            grad_check(lambda t: ad.mul(t, t), x)

    def test_rejects_float32(self):
        # central differences at step 1e-5 are below float32's resolution
        x = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
        calls = []
        with pytest.raises(ContractError, match="float64"):
            grad_check(lambda t: calls.append(t) or ad.mul(t, t).sum(), x)
        assert not calls

    def test_rejects_non_finite(self):
        x = Tensor([1e308], requires_grad=True)
        with np.errstate(over="ignore"), pytest.raises(NumericError):
            grad_check(lambda t: ad.mul(ad.mul(t, t), ad.mul(t, t)).sum(), x)

    @pytest.mark.parametrize("factor", [[np.nan] * 3, [np.nan, 1.0, 1.0]], ids=["all", "first"])
    def test_nan_gradient_fails(self, factor):
        # a NaN error compares false with everything; it must still be the
        # worst, also when finite errors come after it
        def f(t):
            sq = ad.mul(t, t)
            inner = sq._backward
            sq._backward = lambda g: inner(g * np.array(factor))
            return sq.sum()

        rep = grad_check(f, Tensor([1.0, 2.0, 3.0], requires_grad=True))
        assert not rep.passed and np.isnan(rep.max_rel_error) and rep.worst_index == 0


class TestPoolingAndConv:
    def test_maxpool_routes_gradient(self):
        x = Tensor(
            np.array([[[[1.0, 2.0], [3.0, 4.0]]]]), requires_grad=True
        )
        out = ad.max_pool2(x)
        assert out.data.item() == 4.0
        out.sum().backward()
        np.testing.assert_array_equal(x.grad[0, 0], [[0, 0], [0, 1.0]])

    def test_maxpool_four_way_tie_goes_to_first(self):
        x = Tensor(np.full((1, 1, 2, 2), 5.0), requires_grad=True)
        ad.mul(ad.max_pool2(x), Tensor(np.full((1, 1, 1, 1), 3.0))).sum().backward()
        np.testing.assert_array_equal(x.grad[0, 0], [[3.0, 0], [0, 0]])

    def test_maxpool_two_way_tie_goes_to_first_in_row_major_order(self):
        # blocks: tie at (0,1)/(1,0); tie at (1,0)/(1,1); tie at (0,0)/(1,1)
        x = Tensor(
            np.array([[[[1.0, 7.0, 2.0, 0.0, 9.0, 1.0],
                        [7.0, 3.0, 8.0, 8.0, 2.0, 9.0]]]]),
            requires_grad=True,
        )
        out = ad.max_pool2(x)
        np.testing.assert_array_equal(out.data, [[[[7.0, 8.0, 9.0]]]])
        out.sum().backward()
        np.testing.assert_array_equal(
            x.grad[0, 0], [[0, 1.0, 0, 0, 1.0, 0], [0, 0, 1.0, 0, 0, 0]]
        )

    @pytest.mark.parametrize(
        "batch, cin, cout, k, size, x_grad",
        [(2, 2, 3, 1, 4, True), (2, 3, 2, 3, 5, True), (1, 2, 4, 5, 6, True),
         (3, 1, 2, 3, 4, False)],
    )
    def test_conv_matches_nested_loops(self, batch, cin, cout, k, size, x_grad):
        rng = np.random.default_rng(k * 10 + cin)
        x = Tensor(rng.normal(size=(batch, cin, size, size)), requires_grad=x_grad)
        w = Tensor(rng.normal(size=(cout, cin, k, k)), requires_grad=True)
        b = Tensor(rng.normal(size=cout), requires_grad=True)
        g = rng.normal(size=(batch, cout, size, size))
        y, dx, dw, db = conv2d_oracle(x.data, w.data, b.data, g)
        out = ad.conv2d(x, w, b)
        np.testing.assert_allclose(out.data, y, rtol=0, atol=1e-12)
        ad.mul(out, Tensor(g)).sum().backward()
        np.testing.assert_allclose(w.grad, dw, rtol=0, atol=1e-12)
        np.testing.assert_allclose(b.grad, db, rtol=0, atol=1e-12)
        if x_grad:
            np.testing.assert_allclose(x.grad, dx, rtol=0, atol=1e-12)
        else:
            assert x.grad is None

    @pytest.mark.parametrize("layout", ["batch_major", "channel_major"])
    def test_conv_output_is_a_view_of_channel_major_memory(self, layout):
        rng = np.random.default_rng(13)
        xd = rng.normal(size=(3, 2, 4, 6))
        x = Tensor(xd if layout == "batch_major" else channel_major(xd))
        out = ad.conv2d(x, Tensor(rng.normal(size=(5, 2, 3, 3))), Tensor(np.zeros(5)))
        assert out.data.shape == (3, 5, 4, 6)
        assert not out.data.flags.owndata
        assert is_channel_major(out.data)

    def test_conv_identity_kernel(self):
        rng = np.random.default_rng(10)
        x = rng.normal(size=(2, 1, 4, 4))
        w = np.zeros((1, 1, 3, 3))
        w[0, 0, 1, 1] = 1.0
        out = ad.conv2d(Tensor(x), Tensor(w), Tensor(np.zeros(1)))
        np.testing.assert_allclose(out.data, x)

    def test_conv_gradcheck(self):
        rng = np.random.default_rng(11)
        x = Tensor(rng.normal(size=(2, 2, 4, 4)), requires_grad=True)
        w = Tensor(rng.normal(size=(3, 2, 3, 3)), requires_grad=True)
        b = Tensor(rng.normal(size=3), requires_grad=True)

        def f(_t):
            out = ad.conv2d(x, w, b)
            return ad.mul(out, out).sum()

        for target in (x, w, b):
            rep = grad_check(f, target)
            assert rep.passed, rep.max_rel_error

    def test_global_avg_pool(self):
        x = Tensor(np.full((1, 2, 4, 4), 3.0), requires_grad=True)
        out = ad.global_avg_pool(x)
        np.testing.assert_allclose(out.data, [[3.0, 3.0]])
        out.sum().backward()
        np.testing.assert_allclose(x.grad, np.full((1, 2, 4, 4), 1 / 16))
