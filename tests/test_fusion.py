import numpy as np
import pytest

from mmfuse import autodiff as ad, fusion
from mmfuse.autodiff import Tensor, grad_check
from mmfuse.errors import DimensionError
from mmfuse.fusion import ConcatFusion, MMFAFusion, attention_heads
from mmfuse.layers import LinearBN


def zero_params(module):
    for _, t in module.params():
        t.data[...] = 0.0


def concat_fusion(f_img, f_meta):
    return ConcatFusion(f_img.data.shape[1], f_meta.data.shape[1])(f_img, f_meta, "train")


class TestFuseConcat:
    def test_rows(self):
        out = concat_fusion(Tensor([[1.0, 2.0]]), Tensor([[3.0]]))
        np.testing.assert_array_equal(out.data, [[1.0, 2.0, 3.0]])

    def test_default_widths(self):
        cat = ConcatFusion(128, 64)
        out = cat(Tensor(np.zeros((2, 128))), Tensor(np.zeros((2, 64))), "eval")
        assert out.data.shape == (2, cat.out_width) == (2, 192)

    def test_gradient_splits_at_image_width(self):
        a = Tensor(np.zeros((2, 3)), requires_grad=True)
        b = Tensor(np.zeros((2, 2)), requires_grad=True)
        g = np.arange(10.0).reshape(2, 5)
        ad.mul(concat_fusion(a, b), Tensor(g)).sum().backward()
        np.testing.assert_array_equal(a.grad, g[:, :3])
        np.testing.assert_array_equal(b.grad, g[:, 3:])

    def test_batch_mismatch(self):
        with pytest.raises(DimensionError):
            concat_fusion(Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 3))))
        with pytest.raises(DimensionError):
            MMFAFusion(3, 3, heads=2)(Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 3))), "train")


class TestQkvProjection:
    def test_zero_parameters_give_zero_qkv(self):
        branch = LinearBN(4, 12, np.random.default_rng(0))
        zero_params(branch)
        x = Tensor(np.random.default_rng(1).normal(size=(3, 4)))
        q, k, v = ad.split_thirds(branch(x, "train"))
        for part in (q, k, v):
            np.testing.assert_array_equal(part.data, np.zeros((3, 4)))

    def test_projection_width_is_three_d(self):
        branch = LinearBN(128, 384, np.random.default_rng(0))
        assert branch.lin.w.data.shape == (128, 384)
        assert [n for n, _ in branch.params()] == ["lin.w", "bn.gamma", "bn.beta"]
        q, k, v = ad.split_thirds(branch(Tensor(np.zeros((1, 128))), "eval"))
        assert q.data.shape == k.data.shape == v.data.shape == (1, 128)
        mmfa = MMFAFusion(128, 64, heads=8)
        assert mmfa.qkv_img.lin.w.data.shape == (128, 384)
        assert mmfa.qkv_meta.lin.w.data.shape == (64, 192)

    def test_gradcheck_linear_bn_split(self):
        rng = np.random.default_rng(2)
        branch = LinearBN(3, 6, rng)
        x = Tensor(rng.normal(size=(4, 3)), requires_grad=True)

        def f(_t):
            q, k, v = ad.split_thirds(branch(x, "train"))
            s = ad.add(ad.mul(q, q), ad.add(ad.mul(k, k), ad.scale(v, 3.0)))
            return s.sum()

        rep = grad_check(f, x)
        assert rep.passed, rep.max_rel_error


def assemble_kqv(monkeypatch, img, meta, heads=1):
    """The (F_Q, F_K, F_V) that ``MMFAFusion`` passes to ``attention_heads``
    when its q/k/v projections output the triples ``img`` and ``meta``,
    each joined as one (B, 3d) tensor."""
    mmfa = MMFAFusion(img[0].data.shape[1], meta[0].data.shape[1], heads=heads)
    for name, triple in (("qkv_img", img), ("qkv_meta", meta)):
        joined = Tensor(np.concatenate([t.data for t in triple], axis=1))
        monkeypatch.setattr(mmfa, name, lambda f, mode, joined=joined: joined)
    seen = []

    def spy(f_q, f_k, f_v, heads, scale_after_softmax):
        seen.append((f_q, f_k, f_v))
        return attention_heads(f_q, f_k, f_v, heads, scale_after_softmax)

    monkeypatch.setattr(fusion, "attention_heads", spy)
    f_img = Tensor(np.zeros(img[0].data.shape))
    f_meta = Tensor(np.zeros(meta[0].data.shape))
    mmfa(f_img, f_meta, "eval")
    (kqv,) = seen
    return kqv


class TestAssembleKqv:
    def test_metadata_part_first(self, monkeypatch):
        img = (Tensor([[5.0]]), Tensor([[6.0]]), Tensor([[7.0]]))
        meta = (Tensor([[2.0]]), Tensor([[3.0]]), Tensor([[4.0]]))
        f_q, f_k, f_v = assemble_kqv(monkeypatch, img, meta)
        np.testing.assert_array_equal(f_q.data, [[2.0, 5.0]])
        np.testing.assert_array_equal(f_k.data, [[3.0, 6.0]])
        np.testing.assert_array_equal(f_v.data, [[4.0, 7.0]])

    def test_default_width(self, monkeypatch):
        img = tuple(Tensor(np.zeros((2, 128))) for _ in range(3))
        meta = tuple(Tensor(np.zeros((2, 64))) for _ in range(3))
        f_q, _, _ = assemble_kqv(monkeypatch, img, meta, heads=8)
        assert f_q.data.shape == (2, 192)

    def test_batch_permutation_equivariance(self, monkeypatch):
        rng = np.random.default_rng(3)
        img = tuple(Tensor(rng.normal(size=(4, 3))) for _ in range(3))
        meta = tuple(Tensor(rng.normal(size=(4, 2))) for _ in range(3))
        outs = assemble_kqv(monkeypatch, img, meta)
        perm = np.array([2, 0, 3, 1])
        img_p = tuple(Tensor(t.data[perm]) for t in img)
        meta_p = tuple(Tensor(t.data[perm]) for t in meta)
        outs_p = assemble_kqv(monkeypatch, img_p, meta_p)
        for a, b in zip(outs, outs_p):
            np.testing.assert_array_equal(a.data[perm], b.data)


class TestAttentionHeads:
    def test_zero_kq_gives_uniform_weights(self):
        f_v = Tensor(np.random.default_rng(4).normal(size=(3, 6)))
        out, weights = attention_heads(
            Tensor(np.zeros((3, 6))), Tensor(np.zeros((3, 6))), f_v, 2
        )
        s = 3
        assert weights.shape == (3, 2, s)
        np.testing.assert_allclose(weights, 1.0 / s)
        np.testing.assert_allclose(out.data, f_v.data / s, rtol=1e-14)

    def test_hand_computed_softmax(self):
        # single head, s = 2: K*Q = [ln2 * sqrt(2), 0] scaled by 1/sqrt(2)
        f_k = Tensor([[np.log(2.0) * np.sqrt(2.0), 0.0]])
        f_q = Tensor([[1.0, 1.0]])
        f_v = Tensor([[1.0, 1.0]])
        _, weights = attention_heads(f_q, f_k, f_v, 1)
        np.testing.assert_allclose(weights[0, 0], [2 / 3, 1 / 3], rtol=1e-12)

    def test_saturation_picks_one_coordinate(self):
        f_k = Tensor([[200.0, 0.0, 0.0]])
        f_q = Tensor([[1.0, 1.0, 1.0]])
        f_v = Tensor([[7.0, 5.0, 3.0]])
        out, weights = attention_heads(f_q, f_k, f_v, 1)
        assert weights[0, 0, 0] > 1 - 1e-12
        assert np.all(weights[0, 0, 1:] < 1e-12)
        np.testing.assert_allclose(out.data[0, 0], 7.0, rtol=1e-9)
        assert np.all(np.abs(out.data[0, 1:]) < 1e-11)

    def test_weights_on_simplex(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            args = [Tensor(rng.normal(scale=3.0, size=(5, 6))) for _ in range(3)]
            _, weights = attention_heads(*args, 3)
            assert np.all(weights >= 0)
            np.testing.assert_allclose(weights.sum(axis=-1), 1.0, atol=1e-12)

    def test_post_softmax_scaling_shrinks_weights(self):
        rng = np.random.default_rng(6)
        args = [Tensor(rng.normal(size=(3, 4))) for _ in range(3)]
        _, weights = attention_heads(*args, 2, scale_after_softmax=True)
        s = 2
        np.testing.assert_allclose(weights.sum(axis=-1), 1.0 / np.sqrt(s), atol=1e-12)

    def test_indivisible_width_rejected(self):
        args = [Tensor(np.zeros((2, 9))) for _ in range(3)]
        for heads in (4, 0, -3):
            with pytest.raises(DimensionError):
                attention_heads(*args, heads)
            with pytest.raises(DimensionError):
                MMFAFusion(6, 3, heads=heads)

    @pytest.mark.parametrize("shapes", [
        ((2, 6), (2, 6), (3, 6)),
        ((2, 6), (2, 4), (2, 6)),
        ((2, 6), (2, 6), (2, 3, 2)),
        ((12,), (12,), (12,)),
    ])
    def test_inputs_not_one_2d_shape_rejected(self, shapes):
        with pytest.raises(DimensionError):
            attention_heads(*(Tensor(np.zeros(s)) for s in shapes), 2)


class TestMMFA:
    def test_zeroed_parameters_reduce_to_concat(self):
        rng = np.random.default_rng(7)
        mmfa = MMFAFusion(5, 3, rng=rng, heads=2)
        zero_params(mmfa)
        for mode in ("train", "eval"):
            f_i = Tensor(rng.normal(size=(4, 5)))
            f_m = Tensor(rng.normal(size=(4, 3)))
            fused = mmfa(f_i, f_m, mode)
            expected = concat_fusion(f_i, f_m)
            assert np.array_equal(fused.data, expected.data)

    def test_output_width_law(self):
        rng = np.random.default_rng(8)
        for d_img, d_meta, heads in ((128, 64, 8), (6, 3, 3), (5, 3, 4), (2, 2, 1)):
            mmfa = MMFAFusion(d_img, d_meta, rng=rng, heads=heads)
            out = mmfa(
                Tensor(rng.normal(size=(2, d_img))),
                Tensor(rng.normal(size=(2, d_meta))),
                "train",
            )
            assert out.data.shape == (2, d_img + d_meta)

    def test_default_dims(self):
        mmfa = MMFAFusion(128, 64, rng=np.random.default_rng(9), heads=8)
        assert mmfa.out_width == 192
        assert mmfa.heads == 8
        assert mmfa.out.lin.w.data.shape == (192, 192)
        assert not [n for n, _ in mmfa.params() if n.endswith(".b")]
        mmfa(Tensor(np.zeros((2, 128))), Tensor(np.zeros((2, 64))), "eval")
        assert mmfa.last_weights.shape == (2, 8, 24)

    def test_batch_equivariance_eval(self):
        rng = np.random.default_rng(10)
        mmfa = MMFAFusion(4, 2, rng=rng, heads=2)
        f_i = rng.normal(size=(5, 4))
        f_m = rng.normal(size=(5, 2))
        out = mmfa(Tensor(f_i), Tensor(f_m), "eval").data
        perm = np.array([3, 1, 4, 0, 2])
        out_p = mmfa(Tensor(f_i[perm]), Tensor(f_m[perm]), "eval").data
        np.testing.assert_array_equal(out[perm], out_p)

    def test_gradcheck_full_module_both_scalings(self):
        for post in (False, True):
            rng = np.random.default_rng(11)
            mmfa = MMFAFusion(6, 3, rng=rng, heads=3, scale_after_softmax=post)
            f_i = Tensor(rng.normal(size=(4, 6)), requires_grad=True)
            f_m = Tensor(rng.normal(size=(4, 3)), requires_grad=True)

            def f(_t):
                out = mmfa(f_i, f_m, "train")
                return ad.mul(out, out).sum()

            targets = [("f_img", f_i), ("f_meta", f_m)] + mmfa.params()
            assert len(targets) == 11
            for name, target in targets:
                rep = grad_check(f, target)
                assert rep.passed, (post, name, rep.max_rel_error)

    def test_attention_weights_exposed(self):
        rng = np.random.default_rng(12)
        mmfa = MMFAFusion(4, 2, rng=rng, heads=2)
        mmfa(Tensor(rng.normal(size=(3, 4))), Tensor(rng.normal(size=(3, 2))), "eval")
        assert mmfa.last_weights.shape == (3, 2, 3)
