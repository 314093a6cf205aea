"""Finite-difference verification of every differentiable block, which
``mmfuse gradcheck`` runs; its toy models also build the golden steps."""

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import RunningStats, Tensor, grad_check
from .data import SyntheticSpec, generate_synthetic
from .encoders import ImageEncoder, MetadataEncoder
from .experiment import ModelConfig
from .fusion import ConcatFusion, MMFAFusion
from .structures import ModelAssembly, class_weights_from_counts, make_head, total_loss


@dataclass
class BlockReport:
    name: str
    max_rel_error: float
    passed: bool


def _check_targets(name, targets, loss_fn, coords):
    """One block's report at ``grad_check``'s fixed step and tolerance: its
    worst error (NaN if any is) and whether every target passed."""
    reps = [grad_check(lambda _t: loss_fn(), t, coords=coords) for _, t in targets]
    worst = float(np.max([r.max_rel_error for r in reps]))
    return BlockReport(name=name, max_rel_error=worst, passed=all(r.passed for r in reps))


def _sumsq(t):
    return ad.mul(t, t).sum()


def _leaves(rng, *shapes):
    """One requires-grad input per shape, drawn from ``rng`` in order."""
    return [Tensor(rng.normal(size=shape), requires_grad=True) for shape in shapes]


# One toy whole model per structure x fusion case, on the toy dataset: the
# gradient check's model blocks and tests/golden_steps.json use them.
_TOY_SIZES = dict(
    image_features=6, metadata_features=4, channels=(2, 3, 4), metadata_hidden=(5,), heads=2
)
TOY_MODELS = {
    "image": ModelConfig(structure="image", **_TOY_SIZES),
    "jf-cat": ModelConfig(structure="jf", fusion="cat", **_TOY_SIZES),
    "jf-mmfa": ModelConfig(structure="jf", fusion="mmfa", **_TOY_SIZES),
    "jif-cat": ModelConfig(structure="jif", fusion="cat", **_TOY_SIZES),
    "jif-mmfa": ModelConfig(structure="jif", fusion="mmfa", **_TOY_SIZES),
}
TOY_DATA = SyntheticSpec(n_classes=3, per_class=(5, 4, 3), image_shape=(3, 8, 8), seed=7)


def _blocks():
    """Yield ``(name, targets, loss)`` for every differentiable block at toy sizes.

    Seeds and draw order are fixed, so each block checks the same data on
    every run. A loss reads names its block shares with later blocks, so
    check each block before drawing the next.
    """
    rng = np.random.default_rng(11)
    enc = MetadataEncoder(in_width=7, out_dim=5, hidden=(6,), rng=rng)
    (x,) = _leaves(rng, (3, 7))
    yield "metadata_encoder", [("meta_in", x)] + enc.params(), lambda: _sumsq(enc(x, "train"))

    rng = np.random.default_rng(12)
    ienc = ImageEncoder(in_shape=(3, 8, 8), channels=(2, 3, 4), out_dim=5, rng=rng)
    (x,) = _leaves(rng, (4, 3, 8, 8))
    yield "image_encoder", [("img_in", x)] + ienc.params(), lambda: _sumsq(ienc(x, "train"))

    fi, fm = _leaves(np.random.default_rng(13), (3, 4), (3, 2))
    cat = ConcatFusion(4, 2)
    yield "concat_fusion", [("f_img", fi), ("f_meta", fm)], lambda: _sumsq(cat(fi, fm, "train"))

    rng = np.random.default_rng(14)
    mmfa = MMFAFusion(6, 3, rng=rng, heads=3)
    fi, fm = _leaves(rng, (4, 6), (4, 3))
    targets = [("f_img", fi), ("f_meta", fm)] + mmfa.params()
    yield "mmfa", targets, lambda: _sumsq(mmfa(fi, fm, "train"))

    rng = np.random.default_rng(17)
    x, w, gamma, beta = _leaves(rng, (5, 3), (3, 4), 4, 4)
    stats = RunningStats(mean=np.zeros(4), var=np.ones(4))
    # per-element weights: a plain sum of squares of a train-mode batch norm
    # output does not depend on x or w
    coef = Tensor(rng.normal(size=(5, 4)))
    targets = [("x", x), ("w", w), ("gamma", gamma), ("beta", beta)]
    for name, relu in (("dense_block", False), ("dense_block_relu", True)):
        yield name, targets, lambda: _sumsq(
            ad.mul(ad.dense_block(x, w, gamma, beta, stats, "train", relu), coef)
        )

    qkv_meta, qkv_img = _leaves(rng, (3, 6), (3, 12))
    targets = [("qkv_meta", qkv_meta), ("qkv_img", qkv_img)]
    yield "gating_attention", targets, lambda: _sumsq(ad.gating_attention(qkv_meta, qkv_img, 2)[0])

    rng = np.random.default_rng(15)
    labels = rng.integers(0, 3, size=6)
    weights = np.array([1.5, 0.75, 1.0])
    for name, width in (("head_fused", 9), ("head_image", 6), ("head_meta", 3)):
        head = make_head(width, 3, rng)
        (feats,) = _leaves(rng, (6, width))
        yield name, [("feats", feats)] + head.params(), lambda: ad.cross_entropy_logits(
            (head(feats),), labels, weights, (1.0,)
        )[0]

    rng = np.random.default_rng(16)
    for beta in (0.0, 0.5, 1.0):
        zs = _leaves(rng, (4, 3), (4, 3), (4, 3))
        lbl = rng.integers(0, 3, size=4)
        yield f"total_loss_beta_{beta:g}", [(f"logits{j}", z) for j, z in enumerate(zs)], (
            lambda: ad.cross_entropy_logits(zs, lbl, weights, (beta, 1.0 - beta, 1.0))[0]
        )


# coordinates of each tensor that a whole-model block checks
MODEL_COORDS = 4


def _model_blocks():
    """Yield ``(name, targets, loss)`` for each of the ``TOY_MODELS`` in
    train mode, with the batch's images and metadata as leaves: only these
    check where two consumers of one tensor meet. Checking all of a model's
    2,000-2,500 coordinates would take about 10 s a suite, so
    ``MODEL_COORDS`` of each tensor, drawn with a fixed seed, are checked.
    """
    ds = generate_synthetic(TOY_DATA)
    weights = class_weights_from_counts(np.bincount(ds.labels, minlength=ds.n_classes))
    batch = np.random.default_rng(4).permutation(len(ds))[:8]
    for case, model in TOY_MODELS.items():
        asm = ModelAssembly(model, ds, np.random.default_rng(3))
        images = Tensor(ds.images[batch], requires_grad=True)
        meta = Tensor(ds.meta[batch], requires_grad=True)
        targets = [("images", images), ("meta", meta)] + asm.params()
        yield f"model_{case.replace('-', '_')}", targets, lambda: total_loss(
            asm.forward(images, meta, "train"), ds.labels[batch], weights, 0.3, model.structure
        )[0]


def gradcheck_suite():
    """Finite-difference checks over every differentiable block at toy sizes."""
    return [_check_targets(*block, None) for block in _blocks()] + [
        _check_targets(*block, MODEL_COORDS) for block in _model_blocks()
    ]
