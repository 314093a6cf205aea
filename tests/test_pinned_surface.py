"""The package surface the benchmark in ``perfbench/`` calls, at the
signatures it calls it with.

The benchmark builds its per-block timings from public layers and ops,
wraps module attributes by name to trace them, and runs whole grids. A
rename or deletion of any name here breaks it, so each name is called
once on tiny shapes, and a change that removes one fails in tier-1.
"""

import inspect

import numpy as np

from mmfuse import autodiff as ad
from mmfuse import evaluation, experiment, layers, training
from mmfuse.autodiff import Tensor
from mmfuse.encoders import ImageEncoder, MetadataEncoder
from mmfuse.experiment import ExperimentConfig, build_assembly, resolve_dataset
from mmfuse.fusion import MMFAFusion
from mmfuse.layers import BatchNorm, Conv2d
from mmfuse.structures import ModelAssembly, PredictionTriple, make_head, total_loss
from mmfuse.training import sgd_step

CONFIG = {
    "dataset": {
        "synthetic": {
            "n_classes": 3, "per_class": 6, "image_shape": [3, 8, 8], "seed": 1,
        }
    },
    "model": {
        "structure": "jif", "fusion": "mmfa", "report": "all", "heads": 2,
        "image_features": 4, "metadata_features": 2, "channels": [2, 2, 2],
        "metadata_hidden": [3],
    },
    "train": {"epochs": 1, "patience": 1, "batch_size": 6, "augment": False},
    "folds": 3,
    "seeds": [0],
    "jobs": 1,
    "save_checkpoints": False,
}


def leaf(rng, *shape):
    return Tensor(rng.normal(size=shape), requires_grad=True)


def test_autodiff_ops_and_tensor_methods():
    rng = np.random.default_rng(0)
    x = leaf(rng, 2, 1, 4, 4)
    conv = ad.conv2d(x, leaf(rng, 2, 1, 3, 3), leaf(rng, 2))
    pooled = ad.max_pool2(ad.relu(conv))
    root = ad.add(ad.mul(pooled, Tensor(np.ones(pooled.shape))).sum(), pooled.sum())
    root.backward()
    assert x.grad.shape == x.shape
    assert layers.conv2d is ad.conv2d


def test_traced_functions_live_in_their_modules():
    # the tracer finds each public autodiff function by its __module__
    for name in ("add", "mul", "relu", "conv2d", "max_pool2"):
        assert getattr(ad, name).__module__ == ad.__name__
    for module, name in (
        (experiment, "_run_single"), (experiment, "train"), (experiment, "predict_probs"),
        (experiment, "resolve_dataset"), (experiment, "run_experiment"),
        (training, "sgd_step"), (training, "augment"), (training, "eval_bac"),
        (training, "total_loss"),
    ):
        assert callable(getattr(module, name)), name
    for cls, method in (
        (ModelAssembly, "forward"), (ImageEncoder, "__call__"),
        (MetadataEncoder, "__call__"), (MMFAFusion, "__call__"),
        (Tensor, "backward"), (Tensor, "sum"),
    ):
        assert inspect.isfunction(getattr(cls, method)), (cls, method)
    assert list(inspect.signature(ModelAssembly.forward).parameters) == [
        "self", "images", "meta", "mode",
    ]


def test_block_layers_at_pinned_signatures():
    rng = np.random.default_rng(1)
    conv, bn = Conv2d(3, 2, rng, bias=False), BatchNorm(2)
    out = bn(conv(Tensor(rng.normal(size=(4, 3, 8, 8)))), "train")
    assert out.shape == (4, 2, 8, 8)

    meta_enc = MetadataEncoder(in_width=5, out_dim=2, hidden=(3,), rng=rng)
    f_meta = meta_enc(Tensor(rng.normal(size=(4, 5))), "train")
    mmfa = MMFAFusion(4, 2, rng=rng, heads=2)
    fused = mmfa(leaf(rng, 4, 4), f_meta, "train")
    assert fused.shape == (4, mmfa.out_width)

    head_im = make_head(mmfa.out_width, 3, rng)
    head_i, head_m = make_head(4, 3, rng), make_head(2, 3, rng)
    triple = PredictionTriple(
        logits_im=head_im(fused), logits_i=head_i(leaf(rng, 4, 4)), logits_m=head_m(f_meta)
    )
    loss, _ = total_loss(triple, np.array([0, 1, 2, 0]), np.ones(3), 0.5, "jif")
    loss.backward()


def test_assembly_step_and_grid_entry_points(tmp_path):
    cfg = ExperimentConfig.from_dict({**CONFIG, "out": str(tmp_path / "grid")})
    dataset = resolve_dataset(cfg.dataset)
    rng = np.random.default_rng(2)
    assembly = build_assembly(cfg.model, dataset, rng)
    images, meta = Tensor(dataset.images[:6]), Tensor(dataset.meta[:6])
    triple = assembly.forward(images, meta, "train")
    loss, _ = total_loss(triple, dataset.labels[:6], np.ones(3), 0.5, "jif")
    loss.backward()
    named = assembly.named_parameters()
    before = {name: t.data.copy() for name, t in named}
    sgd_step(named, 0.1)
    assert any(not np.array_equal(before[name], t.data) for name, t in named)
    assert training.augment(dataset.images[:2], rng).shape == dataset.images[:2].shape

    folds = evaluation.stratified_kfold(dataset.labels, cfg.folds, cfg.split_seed)
    outcome = experiment._run_single(cfg, dataset, folds, 0, 0)
    assert not outcome.failed
    _, log = experiment.train(
        build_assembly(cfg.model, dataset, rng), dataset, folds[2], folds[1], cfg.train
    )
    assert len(log.rows) == 1
    probs = experiment.predict_probs(assembly, dataset, folds[0])
    assert set(probs) == {"im", "i", "m", "fused"}
    assert 0.0 <= training.eval_bac(assembly, dataset, folds[0], "all") <= 1.0
    result = experiment.run_experiment(cfg)
    assert len(result.rows) == 2 * cfg.folds and not result.failures
