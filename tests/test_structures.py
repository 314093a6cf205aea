from dataclasses import replace

import numpy as np
import pytest

from mmfuse import autodiff as ad
from mmfuse.autodiff import Tensor
from mmfuse.data import SyntheticSpec, generate_synthetic
from mmfuse.errors import ConfigError, ContractError
from mmfuse.experiment import ModelConfig, build_assembly
from mmfuse.structures import (
    PredictionTriple,
    class_weights_from_counts,
    decision_fuse,
    total_loss,
)

MODEL = ModelConfig(
    structure="jif",
    fusion="mmfa",
    image_features=8,
    metadata_features=4,
    heads=3,
    channels=(2, 3, 4),
    metadata_hidden=(6,),
)


@pytest.fixture(scope="module")
def dataset():
    return generate_synthetic(
        SyntheticSpec(n_classes=3, per_class=8, image_shape=(3, 8, 8), seed=0)
    )


def batch(dataset, n=6):
    return Tensor(dataset.images[:n]), Tensor(dataset.meta[:n])


class TestForward:
    @pytest.mark.parametrize("model_dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("which", ["images", "metadata"])
    def test_batch_of_another_dtype_refused(self, dataset, model_dtype, which):
        # a mixed batch would silently compute in float64 and cast the
        # gradients into a float32 model's views
        data = replace(dataset, images=dataset.images.astype(model_dtype),
                       meta=dataset.meta.astype(model_dtype))
        asm = build_assembly(MODEL, data, np.random.default_rng(0))
        other = np.float64 if model_dtype == np.float32 else np.float32
        images, meta = batch(data)
        if which == "images":
            images = Tensor(images.data.astype(other))
        else:
            meta = Tensor(meta.data.astype(other))
        with pytest.raises(ContractError, match=which):
            asm.forward(images, meta, "train")

    def test_zero_heads_give_uniform_predictions(self, dataset):
        asm = build_assembly(MODEL, dataset, np.random.default_rng(0))
        for head in (asm.head_im, asm.head_i, asm.head_m):
            for _, t in head.params():
                t.data[...] = 0.0
        triple = asm.forward(*batch(dataset), "eval")
        for z in (triple.logits_im, triple.logits_i, triple.logits_m):
            np.testing.assert_allclose(ad._softmax(z.data), 1.0 / 3.0, rtol=1e-15)

    def test_jf_and_jif_share_fused_path(self, dataset):
        jf = build_assembly(
            ModelConfig(**{**vars(MODEL), "structure": "jf", "report": "ofb"}),
            dataset,
            np.random.default_rng(42),
        )
        jif = build_assembly(MODEL, dataset, np.random.default_rng(42))
        for mode in ("eval", "train"):
            p_jf = ad._softmax(jf.forward(*batch(dataset), mode).logits_im.data)
            p_jif = ad._softmax(jif.forward(*batch(dataset), mode).logits_im.data)
            assert np.array_equal(p_jf, p_jif)

    def test_shapes_and_simplex(self, dataset):
        asm = build_assembly(MODEL, dataset, np.random.default_rng(1))
        triple = asm.forward(*batch(dataset, n=2), "eval")
        for z in (triple.logits_im, triple.logits_i, triple.logits_m):
            p = ad._softmax(z.data)
            assert p.shape == (2, 3)
            np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-12)

    def test_image_only_structure(self, dataset):
        cfg = ModelConfig(**{**vars(MODEL), "structure": "image"})
        asm = build_assembly(cfg, dataset, np.random.default_rng(2))
        triple = asm.forward(batch(dataset)[0], None, "eval")
        assert triple.logits_i is not None and triple.logits_im is None

    def test_training_forward_records_no_softmax(self, dataset, monkeypatch):
        # only prediction turns the heads' logits into probabilities
        cfg = ModelConfig(**{**vars(MODEL), "fusion": "cat"})
        asm = build_assembly(cfg, dataset, np.random.default_rng(3))
        calls = []
        monkeypatch.setattr(ad, "_softmax", calls.append)
        triple = asm.forward(*batch(dataset), "train")
        assert calls == []
        assert all(z.requires_grad for z in (triple.logits_im, triple.logits_i, triple.logits_m))


def recorded_nodes(root):
    """The op nodes (tensors with parents) that ``root`` reaches."""
    seen, stack = {}, [root]
    while stack:
        t = stack.pop()
        if t._parents and id(t) not in seen:
            seen[id(t)] = t
            stack.extend(t._parents)
    return list(seen.values())


class TestGraphSize:
    def test_jif_mmfa_step_records_seventeen_nodes(self, dataset):
        # image 3 conv blocks + pool + projection, metadata 2 dense blocks,
        # MMFA 2 projections + attention + output + concat + add, 3 heads
        # and one loss node
        asm = build_assembly(MODEL, dataset, np.random.default_rng(0))
        triple = asm.forward(*batch(dataset), "train")
        total, _ = total_loss(triple, dataset.labels[:6], np.ones(3), 0.5, "jif")
        assert len(recorded_nodes(total)) == 17
        assert set(total._parents) == {triple.logits_i, triple.logits_m, triple.logits_im}


def image_loss(logits, labels, weights):
    """The image structure's loss: one head's weighted cross-entropy."""
    total, comps = total_loss(PredictionTriple(logits_i=logits), labels, weights, 0.5, "image")
    assert float(total.data) == comps["L_I"]
    return total


class TestWeightedCE:
    def test_uniform_weights_standard_ce(self):
        rng = np.random.default_rng(4)
        logits = Tensor(rng.normal(size=(5, 4)))
        labels = rng.integers(0, 4, size=5)
        loss = image_loss(logits, labels, np.ones(4))
        z = logits.data
        p = np.exp(z) / np.exp(z).sum(axis=1, keepdims=True)
        expected = -np.log(p[np.arange(5), labels]).mean()
        np.testing.assert_allclose(float(loss.data), expected, rtol=1e-12)

    def test_perfect_predictions(self):
        logits = Tensor(np.array([[40.0, 0.0], [0.0, 40.0]]))
        loss = image_loss(logits, np.array([0, 1]), np.ones(2))
        assert float(loss.data) < 1e-10

    def test_hand_case(self):
        loss = image_loss(Tensor([[0.0, 0.0]]), np.array([0]), np.array([2.0, 1.0]))
        np.testing.assert_allclose(float(loss.data), 2.0 * np.log(2.0), rtol=1e-15)

    def test_nonpositive_weights_rejected(self):
        with pytest.raises(ConfigError):
            image_loss(Tensor([[0.0, 0.0]]), np.array([0]), np.array([0.0, 1.0]))
        with pytest.raises(ConfigError):
            image_loss(Tensor([[0.0, 0.0]]), np.array([0]), np.array([-1.0, 1.0]))

    def test_weights_must_match_classes(self):
        with pytest.raises(ConfigError, match="does not match"):
            image_loss(Tensor([[0.0, 0.0]]), np.array([0]), np.ones(3))
        with pytest.raises(ConfigError, match="does not match"):
            image_loss(Tensor([[0.0, 0.0]]), np.array([0]), np.ones((1, 2)))


class TestTotalLoss:
    def test_combination_formula(self, dataset):
        asm = build_assembly(MODEL, dataset, np.random.default_rng(4))
        triple = asm.forward(*batch(dataset), "train")
        total, comps = total_loss(triple, dataset.labels[:6], np.ones(3), 0.25, "jif")
        assert float(total.data) == comps["L_I"] * 0.25 + comps["L_M"] * 0.75 + comps["L_IM"]

    def test_beta_bounds(self):
        triple = PredictionTriple(*(Tensor(np.zeros((2, 3))) for _ in range(3)))
        for beta in (1.5, -0.1):
            with pytest.raises(ConfigError):
                total_loss(triple, np.array([0, 1]), np.ones(3), beta, "jif")

    def test_beta_zero_drops_image_term(self, dataset):
        asm = build_assembly(MODEL, dataset, np.random.default_rng(5))
        images, meta = batch(dataset)
        labels = dataset.labels[:6]
        triple = asm.forward(images, meta, "train")
        total, comps = total_loss(triple, labels, np.ones(3), 0.0, "jif")
        np.testing.assert_allclose(
            float(total.data), comps["L_M"] + comps["L_IM"], rtol=1e-12
        )
        asm.zero_grads()
        total.backward()
        np.testing.assert_array_equal(asm.head_i.w.grad, np.zeros_like(asm.head_i.w.data))
        assert np.any(asm.head_m.w.grad != 0.0)

    def test_beta_one_drops_metadata_term(self, dataset):
        asm = build_assembly(MODEL, dataset, np.random.default_rng(6))
        triple = asm.forward(*batch(dataset), "train")
        total, comps = total_loss(triple, dataset.labels[:6], np.ones(3), 1.0, "jif")
        np.testing.assert_allclose(
            float(total.data), comps["L_I"] + comps["L_IM"], rtol=1e-12
        )

    def test_gradient_scales_linearly_with_beta(self, dataset):
        grads = {}
        for beta in (0.5, 1.0):
            asm = build_assembly(MODEL, dataset, np.random.default_rng(7))
            triple = asm.forward(*batch(dataset), "train")
            total, _ = total_loss(triple, dataset.labels[:6], np.ones(3), beta, "jif")
            asm.zero_grads()
            total.backward()
            grads[beta] = asm.head_i.w.grad.copy()
        np.testing.assert_allclose(grads[0.5], 0.5 * grads[1.0], rtol=1e-9)

    def test_jif_requires_all_branches(self, dataset):
        cfg = ModelConfig(**{**vars(MODEL), "structure": "jf", "report": "ofb"})
        asm = build_assembly(cfg, dataset, np.random.default_rng(8))
        triple = asm.forward(*batch(dataset), "train")
        with pytest.raises(ContractError):
            total_loss(triple, dataset.labels[:6], np.ones(3), 0.5, "jif")

    def test_non_negative(self, dataset):
        asm = build_assembly(MODEL, dataset, np.random.default_rng(9))
        triple = asm.forward(*batch(dataset), "train")
        total, _ = total_loss(
            triple, dataset.labels[:6], np.array([0.5, 2.0, 1.0]), 0.5, "jif"
        )
        assert float(total.data) >= 0.0


class TestDecisionFuse:
    def test_idempotence(self):
        p = np.array([[0.2, 0.8]])
        np.testing.assert_allclose(decision_fuse(p, p, p), p)

    def test_mean(self):
        fused = decision_fuse(
            np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]]), np.array([[0.5, 0.5]])
        )
        np.testing.assert_allclose(fused, [[0.5, 0.5]])

    def test_simplex_and_convexity(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            ps = [rng.dirichlet(np.ones(4), size=3) for _ in range(3)]
            fused = decision_fuse(*ps)
            np.testing.assert_allclose(fused.sum(axis=1), 1.0, atol=1e-12)
            stacked = np.stack(ps)
            assert np.all(fused >= stacked.min(axis=0) - 1e-15)
            assert np.all(fused <= stacked.max(axis=0) + 1e-15)

    def test_missing_component(self):
        with pytest.raises(ContractError):
            decision_fuse(None, None, np.array([[1.0]]))


class TestClassWeights:
    def test_uniform(self):
        np.testing.assert_array_equal(class_weights_from_counts([10, 10]), [1.0, 1.0])

    def test_imbalanced(self):
        w = class_weights_from_counts([30, 10])
        np.testing.assert_allclose(w, [2 / 3, 2.0], rtol=1e-15)

    def test_weighted_total_identity(self):
        rng = np.random.default_rng(11)
        counts = rng.integers(1, 50, size=5)
        w = class_weights_from_counts(counts)
        np.testing.assert_allclose((w * counts).sum(), counts.sum(), rtol=1e-12)

    def test_zero_count_rejected(self):
        with pytest.raises(ConfigError, match="stratified"):
            class_weights_from_counts([5, 0])


def perturbed(a, kind, rng):
    """A bounded change of the batch ``a``: its rows shuffled, an affine
    rescaling, or fresh uniform values over its range."""
    if kind == "shuffled":
        return a[rng.permutation(len(a))]
    if kind == "rescaled":
        return a * rng.uniform(0.5, 2.0) + rng.uniform(-1.0, 1.0)
    return rng.uniform(a.min(), a.max(), size=a.shape)


class TestModalitySeparation:
    """Metamorphic relations: each head reads only its own modality. Head
    ``i`` ignores the metadata and head ``m`` the images, in eval logits and
    in train-mode gradients, whatever the seed or the change of the other
    modality; the fused head ``im`` sees both."""

    KINDS = ("shuffled", "rescaled", "redrawn")

    def _assembly(self, dataset, structure, seed):
        cfg = ModelConfig(**{**vars(MODEL), "structure": structure})
        asm = build_assembly(cfg, dataset, np.random.default_rng(seed))
        # a train-mode forward moves the running statistics off their defaults
        asm.forward(*batch(dataset, n=12), "train")
        return asm

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("seed", [0, 1])
    def test_image_structure_ignores_metadata(self, dataset, kind, seed):
        asm = self._assembly(dataset, "image", seed)
        images, meta = batch(dataset)
        other = Tensor(perturbed(meta.data, kind, np.random.default_rng(seed)))
        np.testing.assert_array_equal(asm.forward(images, other, "eval").logits_i.data,
                                      asm.forward(images, meta, "eval").logits_i.data)

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("seed", [0, 1])
    def test_jif_side_heads_read_one_modality_in_eval(self, dataset, kind, seed):
        asm = self._assembly(dataset, "jif", seed)
        rng = np.random.default_rng(seed)
        images, meta = batch(dataset)
        other_meta = Tensor(perturbed(meta.data, kind, rng))
        other_images = Tensor(perturbed(images.data, kind, rng))
        base = asm.forward(images, meta, "eval")
        for kept, other in (("logits_i", asm.forward(images, other_meta, "eval")),
                            ("logits_m", asm.forward(other_images, meta, "eval"))):
            np.testing.assert_array_equal(getattr(other, kept).data, getattr(base, kept).data,
                                          err_msg=kept)
            assert not np.array_equal(other.logits_im.data, base.logits_im.data)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_jif_side_head_losses_reach_one_encoder(self, dataset, seed):
        asm = self._assembly(dataset, "jif", seed)
        images, meta = batch(dataset)
        for head, silent, reached in (("i", asm.metadata_encoder, asm.image_encoder),
                                      ("m", asm.image_encoder, asm.metadata_encoder)):
            logits = getattr(asm.forward(images, meta, "train"), "logits_" + head)
            loss, _ = ad.cross_entropy_logits((logits,), dataset.labels[:6], np.ones(3), (1.0,))
            asm.zero_grads()
            loss.backward()
            for name, t in silent.params():
                assert not t.grad.any(), f"the loss of head {head} reached {name}"
            assert any(t.grad.any() for _, t in reached.params())
