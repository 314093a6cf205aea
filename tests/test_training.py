import json
import math
from dataclasses import replace

import numpy as np
import pytest

from mmfuse import autodiff as ad, layers, training
from mmfuse.autodiff import Tensor
from mmfuse.data import SyntheticSpec, generate_synthetic
from mmfuse.errors import ConfigError, FormatError, NumericError
from mmfuse.experiment import ModelConfig, build_assembly
from mmfuse.structures import decision_fuse
from mmfuse.training import (
    TrainConfig,
    augment,
    cosine_lr,
    eval_bac,
    load_checkpoint,
    predict_probs,
    save_checkpoint,
    sgd_step,
    train,
)

SMALL_MODEL = ModelConfig(
    structure="jif",
    fusion="mmfa",
    image_features=12,
    metadata_features=6,
    heads=3,
    channels=(3, 4, 6),
    metadata_hidden=(8,),
)


def small_dataset(**kw):
    args = dict(n_classes=2, per_class=16, image_shape=(3, 8, 8),
                alpha_img=1.0, alpha_meta=1.0, noise=0.05, seed=0)
    args.update(kw)
    return generate_synthetic(SyntheticSpec(**args))


class TestCosineLR:
    def test_initial_value(self):
        assert cosine_lr(0, 150, 0.005) == 0.005

    def test_final_value(self):
        assert cosine_lr(150, 150, 0.005) == pytest.approx(0.0, abs=1e-18)

    def test_halfway(self):
        assert cosine_lr(75, 150, 0.005) == pytest.approx(0.0025, rel=1e-12)

    def test_eta_min_floor(self):
        assert cosine_lr(10, 10, 0.1, eta_min=0.01) == pytest.approx(0.01)

    def test_zero_total_rejected(self):
        with pytest.raises(ConfigError):
            cosine_lr(0, 0, 0.005)


class TestSgdStep:
    def test_zero_lr_keeps_parameters(self):
        p = Tensor([1.0, 2.0], requires_grad=True)
        p.grad = np.array([5.0, -3.0])
        sgd_step([("p", p)], 0.0)
        np.testing.assert_array_equal(p.data, [1.0, 2.0])

    def test_basic_update(self):
        p = Tensor([1.0], requires_grad=True)
        p.grad = np.array([2.0])
        sgd_step([("p", p)], 0.5)
        np.testing.assert_array_equal(p.data, [0.0])

    def test_two_steps_quadratic(self):
        # f(p) = p^2 from p=1 with lr 0.1: p <- 0.8 p, twice -> 0.64
        p = Tensor([1.0], requires_grad=True)
        for _ in range(2):
            p.zero_grad()
            loss = ad.mul(p, p).sum()
            loss.backward()
            sgd_step([("p", p)], 0.1)
        np.testing.assert_allclose(p.data, [0.64], rtol=1e-15)

    def test_non_finite_gradient_names_parameter(self):
        p = Tensor([1.0], requires_grad=True)
        p.grad = np.array([np.inf])
        with pytest.raises(NumericError, match="mylayer.w"):
            sgd_step([("mylayer.w", p)], 0.1)

    def test_non_finite_gradient_moves_no_parameter(self):
        a = Tensor([1.0], requires_grad=True)
        b = Tensor([2.0, 3.0], requires_grad=True)
        a.grad = np.array([5.0])
        b.grad = np.array([1.0, np.nan])
        with pytest.raises(NumericError, match="'b'"):
            sgd_step([("a", a), ("b", b)], 0.1)
        np.testing.assert_array_equal(a.data, [1.0])
        np.testing.assert_array_equal(b.data, [2.0, 3.0])


# The per-image augmentation that the batched ``augment`` replaced, kept
# with renamed functions as its bitwise oracle. Its rescale crops or pads
# both axes by the height alone, so it is only right on square images.


def oracle_hflip(img):
    return img[:, :, ::-1]


def oracle_vflip(img):
    return img[:, ::-1, :]


def oracle_shift(img, dy, dx):
    out = np.zeros_like(img)
    h, w = img.shape[1], img.shape[2]
    ys = slice(max(dy, 0), min(h + dy, h))
    xs = slice(max(dx, 0), min(w + dx, w))
    ys_src = slice(max(-dy, 0), min(h - dy, h))
    xs_src = slice(max(-dx, 0), min(w - dx, w))
    out[:, ys, xs] = img[:, ys_src, xs_src]
    return out


def oracle_rotate(img, degrees):
    h, w = img.shape[1], img.shape[2]
    theta = math.radians(degrees)
    cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
    yy, xx = np.mgrid[0:h, 0:w]
    ys = math.cos(theta) * (yy - cy) - math.sin(theta) * (xx - cx) + cy
    xs = math.sin(theta) * (yy - cy) + math.cos(theta) * (xx - cx) + cx
    yi = np.rint(ys).astype(np.intp)
    xi = np.rint(xs).astype(np.intp)
    valid = (yi >= 0) & (yi < h) & (xi >= 0) & (xi < w)
    out = np.zeros_like(img)
    out[:, valid] = img[:, yi[valid], xi[valid]]
    return out


def oracle_scale(img, factor):
    h, w = img.shape[1], img.shape[2]
    nh, nw = max(int(round(h * factor)), 1), max(int(round(w * factor)), 1)
    yi = np.clip(((np.arange(nh) + 0.5) * h / nh - 0.5).round(), 0, h - 1).astype(np.intp)
    xi = np.clip(((np.arange(nw) + 0.5) * w / nw - 0.5).round(), 0, w - 1).astype(np.intp)
    resized = img[:, yi][:, :, xi]
    out = np.zeros_like(img)
    if nh >= h:
        top = (nh - h) // 2
        left = (nw - w) // 2
        out[:] = resized[:, top : top + h, left : left + w]
    else:
        top = (h - nh) // 2
        left = (w - nw) // 2
        out[:, top : top + nh, left : left + nw] = resized
    return out


def oracle_augment(img, rng, prob=0.5, max_shift=0.125, scale_range=(0.9, 1.1),
                   small_angle=15.0):
    out = img
    if rng.random() < prob:
        out = oracle_hflip(out)
    if rng.random() < prob:
        out = oracle_vflip(out)
    if rng.random() < prob:
        m = max(int(round(img.shape[1] * max_shift)), 1)
        out = oracle_shift(out, int(rng.integers(-m, m + 1)), int(rng.integers(-m, m + 1)))
    if rng.random() < prob:
        if rng.random() < 0.5:
            out = oracle_rotate(out, 90.0 if rng.random() < 0.5 else -90.0)
        else:
            out = oracle_rotate(out, float(rng.uniform(-small_angle, small_angle)))
    if rng.random() < prob:
        out = oracle_scale(out, float(rng.uniform(*scale_range)))
    return np.ascontiguousarray(out)


def oracle_augment_batch(images, rng, prob=0.5):
    return np.stack([oracle_augment(im, rng, prob=prob) for im in images])


class ScriptedRng:
    """Stands in for a Generator, returning the scripted values in order."""

    def __init__(self, values):
        self.values = list(values)

    def random(self):
        return self.values.pop(0)

    def integers(self, low, high):
        value = self.values.pop(0)
        assert low <= value < high
        return value

    def uniform(self, low, high):
        return self.values.pop(0)


# per-image scripts at prob=0.5: YES fires a transform, NO skips it
YES, NO = 0.0, 0.9
HFLIP = (YES, NO, NO, NO, NO)
VFLIP = (NO, YES, NO, NO, NO)


def shift_script(dy, dx):
    return (NO, NO, YES, dy, dx, NO, NO)


QUARTER_TURN = (NO, NO, NO, YES, YES, YES, NO)  # rotate, a quarter turn, +90


def scale_script(factor):
    return (NO, NO, NO, NO, YES, factor)


def scripted(images, script):
    """``augment`` with every image of the batch following ``script``."""
    rng = ScriptedRng(script * len(images))
    out = augment(images, rng)
    assert rng.values == []
    return out


def bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


class TestAugment:
    def test_probability_zero_is_identity(self):
        rng = np.random.default_rng(0)
        batch = rng.uniform(size=(4, 3, 8, 8))
        np.testing.assert_array_equal(augment(batch, rng, prob=0.0), batch)

    def test_hflip_is_involution(self):
        batch = np.random.default_rng(1).uniform(size=(2, 3, 6, 6))
        for script, flipped in ((HFLIP, batch[..., ::-1]), (VFLIP, batch[:, :, ::-1])):
            once = scripted(batch, script)
            np.testing.assert_array_equal(once, flipped)
            np.testing.assert_array_equal(scripted(once, script), batch)

    def test_shift_zero_pads(self):
        out = scripted(np.ones((1, 1, 16, 16)), shift_script(1, 2))
        assert out[0, 0, 0, :].sum() == 0  # first row vacated
        assert out[0, 0, :, :2].sum() == 0  # first two columns vacated
        assert out.sum() == 15 * 14

    def test_shift_range_sized_per_axis(self):
        # 8x24 at max_shift 0.125: dy from [-1, 1], then dx from [-3, 3]
        calls = []

        class Recording(ScriptedRng):
            def integers(self, low, high):
                calls.append((low, high))
                return super().integers(low, high)

        out = augment(np.ones((1, 1, 8, 24)), Recording(shift_script(-1, 3)))
        assert calls == [(-1, 2), (-3, 4)]
        assert not out[0, 0, -1].any() and not out[0, 0, :, :3].any()
        assert out.sum() == 7 * 21

    def test_quarter_rotation_preserves_content(self):
        batch = np.arange(32.0).reshape(2, 1, 4, 4)
        out = scripted(batch, QUARTER_TURN)
        np.testing.assert_array_equal(out, np.rot90(batch, -1, axes=(2, 3)))

    def test_scale_identity_factor(self):
        batch = np.random.default_rng(2).uniform(size=(3, 3, 8, 8))
        np.testing.assert_array_equal(scripted(batch, scale_script(1.0)), batch)

    def test_deterministic_given_seed(self):
        batch = np.random.default_rng(3).uniform(size=(4, 3, 8, 8))
        a = augment(batch, np.random.default_rng(42))
        b = augment(batch, np.random.default_rng(42))
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("prob", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("side", [8, 16])
    @pytest.mark.parametrize("batch_size", [1, 16])
    def test_matches_per_image_oracle_bitwise(self, prob, side, batch_size):
        for seed in range(200):
            batch = np.random.default_rng(10_000 + seed).standard_normal(
                (batch_size, 3, side, side)
            )
            rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            out = augment(batch, rng, prob=prob)
            expected = oracle_augment_batch(batch, oracle_rng, prob=prob)
            assert out.shape == expected.shape and out.dtype == expected.dtype
            assert np.array_equal(bits(out), bits(expected)), f"seed {seed}"
            assert rng.random() == oracle_rng.random(), f"seed {seed}"

    def test_rescale_crops_or_pads_each_axis_on_its_own(self):
        # 8x24 at 0.94: the height stays 8 rows while the width resizes to 23
        # columns, which drop the middle column and pad one zero column
        batch = np.random.default_rng(4).uniform(0.5, 1.0, size=(1, 3, 8, 24))
        out = scripted(batch, scale_script(0.94))
        np.testing.assert_array_equal(out[..., :23], batch[..., np.r_[0:11, 12:24]])
        assert not out[..., 23].any()
        # at 1.06 the width resizes to 25 columns and crops back to 24
        out = scripted(batch, scale_script(1.06))
        np.testing.assert_array_equal(out, batch[..., np.r_[0:13, 12:23]])


class TestTrainLoop:
    def test_early_stop_after_patience(self):
        # single-class data freezes validation BAC at 1.0 from the first epoch
        ds = small_dataset(n_classes=1, per_class=12, alpha_meta=0.0)
        asm = build_assembly(
            ModelConfig(**{**vars(SMALL_MODEL)}), ds, np.random.default_rng(0)
        )
        cfg = TrainConfig(epochs=200, patience=4, batch_size=8, seed=0, augment=False)
        _, log = train(asm, ds, ds.subset(range(6)), cfg)
        assert len(log.rows) == cfg.patience + 1
        assert log.best_epoch == 0
        assert "no val BAC improvement" in log.stop_reason

    def test_overfits_separable_data(self):
        ds = small_dataset()  # 32 samples, 2 classes, full signal
        asm = build_assembly(SMALL_MODEL, ds, np.random.default_rng(1))
        cfg = TrainConfig(epochs=150, patience=150, batch_size=16, seed=1,
                          augment=False)
        asm, log = train(asm, ds, ds, cfg)
        assert eval_bac(asm, ds, "all") >= 0.99

    def test_identical_seed_identical_log(self, tmp_path):
        ds = small_dataset(per_class=8)
        logs = []
        for _ in range(2):
            asm = build_assembly(SMALL_MODEL, ds, np.random.default_rng(2))
            cfg = TrainConfig(epochs=4, patience=4, batch_size=8, seed=5)
            _, log = train(asm, ds.subset(range(10)), ds.subset(range(10, 16)), cfg)
            path = tmp_path / f"log{len(logs)}.csv"
            log.write_csv(path)
            logs.append((log, path.read_bytes()))
        assert logs[0][0].rows == logs[1][0].rows
        assert logs[0][1] == logs[1][1]

    def test_lr_trace_matches_closed_form(self):
        ds = small_dataset(per_class=8)
        asm = build_assembly(SMALL_MODEL, ds, np.random.default_rng(3))
        cfg = TrainConfig(epochs=5, patience=5, batch_size=8, seed=0, augment=False)
        _, log = train(asm, ds.subset(range(10)), ds.subset(range(10, 16)), cfg)
        for row in log.rows:
            assert row["lr"] == cosine_lr(row["epoch"], cfg.epochs, cfg.lr0, cfg.eta_min)
        assert log.rows[0]["lr"] == 0.005

    def test_best_epoch_parameters_restored(self):
        ds = small_dataset()  # 32 samples
        asm = build_assembly(SMALL_MODEL, ds, np.random.default_rng(4))
        cfg = TrainConfig(epochs=6, patience=6, batch_size=8, seed=7, augment=False)
        val = ds.subset(range(20, 32))
        asm, log = train(asm, ds.subset(range(20)), val, cfg)
        assert eval_bac(asm, val, "all") == log.best_bac
        assert len(log.rows) <= min(cfg.epochs, log.best_epoch + 1 + cfg.patience)

    def test_empty_split_rejected(self):
        ds = small_dataset(per_class=4)
        asm = build_assembly(SMALL_MODEL, ds, np.random.default_rng(5))
        with pytest.raises(ConfigError):
            train(asm, ds.subset([]), ds, TrainConfig())

    def test_batch_size_one_rejected(self):
        with pytest.raises(ConfigError, match="batch_size"):
            TrainConfig(batch_size=1).validate()

    @pytest.mark.parametrize("prob", [-0.1, 1.5, float("nan")])
    def test_augment_prob_outside_unit_interval_rejected(self, prob):
        with pytest.raises(ConfigError, match="augment_prob"):
            TrainConfig(augment_prob=prob).validate()

    @pytest.mark.parametrize("beta", [-0.5, 1.01, float("nan")])
    def test_beta_outside_unit_interval_rejected(self, beta):
        with pytest.raises(ConfigError, match="beta"):
            TrainConfig(beta=beta).validate()

    def test_negative_eta_min_rejected(self):
        with pytest.raises(ConfigError, match="eta_min"):
            TrainConfig(eta_min=-1e-4).validate()

    def test_augmented_training_matches_per_image_oracle(self, monkeypatch):
        ds = small_dataset(per_class=10)
        cfg = TrainConfig(epochs=3, patience=3, batch_size=8, seed=3, augment=True)
        states = []
        for aug in (augment, oracle_augment_batch):
            calls = []

            def counted(images, rng, prob, aug=aug):
                calls.append(len(images))
                return aug(images, rng, prob=prob)

            monkeypatch.setattr(training, "augment", counted)
            asm = build_assembly(SMALL_MODEL, ds, np.random.default_rng(8))
            asm, _ = train(asm, ds.subset(range(14)), ds.subset(range(14, 20)), cfg)
            assert calls == [8, 6] * 3
            states.append(asm.state())
        assert states[0].keys() == states[1].keys()
        for name in states[0]:
            assert np.array_equal(bits(states[0][name]), bits(states[1][name])), name

    def test_trailing_single_sample_joins_previous_batch(self, monkeypatch):
        # 17 % 8 == 1: a batch of one would reach train-mode batch norm
        from mmfuse.structures import ModelAssembly

        sizes = []
        forward = ModelAssembly.forward

        def spy(self, images, meta, mode):
            if mode == "train":
                sizes.append(images.data.shape[0])
            return forward(self, images, meta, mode)

        monkeypatch.setattr(ModelAssembly, "forward", spy)
        ds = small_dataset(per_class=9)
        asm = build_assembly(SMALL_MODEL, ds, np.random.default_rng(4))
        cfg = TrainConfig(epochs=2, patience=2, batch_size=8, seed=0, augment=False)
        train(asm, ds.subset(range(17)), ds.subset(range(17, 18)), cfg)
        assert sizes == [8, 9, 8, 9]

    def test_single_sample_train_split_rejected(self):
        ds = small_dataset(per_class=4)
        asm = build_assembly(SMALL_MODEL, ds, np.random.default_rng(5))
        with pytest.raises(ConfigError):
            train(asm, ds.subset([0]), ds, TrainConfig(augment=False))

    def test_class_weights_come_from_train_split_only(self):
        # a validation split missing a class is fine; a train split missing
        # one is the configuration error class_weights_from_counts raises
        ds = small_dataset()
        asm = build_assembly(SMALL_MODEL, ds, np.random.default_rng(9))
        cfg = TrainConfig(epochs=1, patience=1, batch_size=8, seed=0, augment=False)
        val_one_class = ds.subset(np.flatnonzero(ds.labels == 0)[:4])
        train(asm, ds, val_one_class, cfg)  # must not raise
        train_one_class = ds.subset(np.flatnonzero(ds.labels == 0))
        with pytest.raises(ConfigError, match="stratified"):
            train(asm, train_one_class, ds, cfg)

    def test_loss_components_logged(self):
        ds = small_dataset(per_class=6)
        asm = build_assembly(SMALL_MODEL, ds, np.random.default_rng(6))
        cfg = TrainConfig(epochs=2, patience=2, batch_size=8, seed=0, augment=False)
        _, log = train(asm, ds.subset(range(8)), ds.subset(range(8, 12)), cfg)
        for key in ("L_I", "L_M", "L_IM"):
            assert key in log.rows[0]


def batch_major_eval_norm(x, gamma, beta, stats, mode):
    """Eval-mode batch norm written on the (B, F[, H, W]) layout, returning a
    graph-recording Tensor without a backward (inference needs none)."""
    assert mode == "eval"
    bshape = (1, x.data.shape[1]) + (1,) * (x.data.ndim - 2)
    xhat = (x.data - stats.mean.reshape(bshape)) * (
        1.0 / np.sqrt(stats.var + stats.eps)
    ).reshape(bshape)
    out = Tensor(gamma.data.reshape(bshape) * xhat + beta.data.reshape(bshape))
    out.requires_grad, out._parents = True, (x, gamma, beta)
    return out


def graph_recording_probs(assembly, dataset, batch_size):
    """predict_probs without ``no_graph``: every forward records its graph."""
    probs = {}
    for start in range(0, len(dataset), batch_size):
        idx = np.arange(start, min(start + batch_size, len(dataset)))
        triple = assembly.forward(
            Tensor(dataset.images[idx]), Tensor(dataset.meta[idx]), "eval"
        )
        parts = {"im": triple.logits_im, "i": triple.logits_i, "m": triple.logits_m}
        parts = {key: ad.softmax(t) for key, t in parts.items() if t is not None}
        assert all(t.requires_grad for t in parts.values())
        for key, t in parts.items():
            probs.setdefault(key, []).append(t.data)
        if len(parts) == 3:
            probs.setdefault("fused", []).append(
                decision_fuse(parts["i"].data, parts["m"].data, parts["im"].data)
            )
    return {k: np.concatenate(v, axis=0) for k, v in probs.items()}


class TestInferenceRecordsNoGraph:
    STRUCTURES = (("image", "mmfa"), ("jf", "cat"), ("jf", "mmfa"), ("jif", "mmfa"))

    def _trained_stats(self, structure, fusion, ds):
        # one train-mode forward moves the running statistics off their defaults
        asm = build_assembly(
            replace(SMALL_MODEL, structure=structure, fusion=fusion), ds,
            np.random.default_rng(4),
        )
        asm.forward(Tensor(ds.images[:8]), Tensor(ds.meta[:8]), "train")
        return asm

    def test_forward_inside_block_has_no_graph(self):
        ds = small_dataset(per_class=4)
        asm = self._trained_stats("jif", "mmfa", ds)
        images, meta = Tensor(ds.images), Tensor(ds.meta)
        recorded = asm.forward(images, meta, "eval")
        with ad.no_graph():
            bare = asm.forward(images, meta, "eval")
        for field_name in ("logits_im", "logits_i", "logits_m"):
            t, ref = getattr(bare, field_name), getattr(recorded, field_name)
            assert not t.requires_grad and t._parents == () and t._backward is None
            assert ref.requires_grad
            np.testing.assert_array_equal(t.data, ref.data)

    @pytest.mark.parametrize("structure, fusion", STRUCTURES)
    def test_predict_probs_matches_graph_recording_forward(
        self, structure, fusion, monkeypatch
    ):
        ds = small_dataset(per_class=8)
        asm = self._trained_stats(structure, fusion, ds)
        got = predict_probs(asm, ds, batch_size=5)
        monkeypatch.setattr(layers, "batch_norm", batch_major_eval_norm)
        want = graph_recording_probs(asm, ds, batch_size=5)
        assert sorted(got) == sorted(want)
        for key in want:
            np.testing.assert_array_equal(got[key], want[key])

    def test_training_after_eval_bac_receives_gradients(self):
        ds = small_dataset(per_class=6)
        asm = build_assembly(SMALL_MODEL, ds, np.random.default_rng(5))
        eval_bac(asm, ds, "all")
        before = asm.state()
        cfg = TrainConfig(epochs=1, patience=1, batch_size=8, seed=0, augment=False)
        asm, _ = train(asm, ds, ds, cfg)
        for name, p in asm.params():
            assert p.grad is not None and np.any(p.grad != 0.0), name
            assert not np.array_equal(p.data, before[name]), name


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        ds = small_dataset(per_class=4)
        asm = build_assembly(SMALL_MODEL, ds, np.random.default_rng(7))
        state = asm.state()
        save_checkpoint(asm, tmp_path / "ck.bin", tmp_path / "ck.json")
        fresh = build_assembly(SMALL_MODEL, ds, np.random.default_rng(99))
        load_checkpoint(fresh, tmp_path / "ck.bin", tmp_path / "ck.json")
        for name, arr in fresh.state().items():
            np.testing.assert_array_equal(arr, state[name])

    def test_manifest_lists_offsets(self, tmp_path):
        import json

        ds = small_dataset(per_class=4)
        asm = build_assembly(SMALL_MODEL, ds, np.random.default_rng(8))
        save_checkpoint(asm, tmp_path / "ck.bin", tmp_path / "ck.json")
        manifest = json.loads((tmp_path / "ck.json").read_text())
        assert manifest["dtype"] == "<f8"
        size = (tmp_path / "ck.bin").stat().st_size
        total = sum(
            8 * int(np.prod(e["shape"])) if e["shape"] else 8
            for e in manifest["arrays"].values()
        )
        assert size == total

    def _saved(self, tmp_path, model=SMALL_MODEL):
        ds = small_dataset(per_class=4)
        save_checkpoint(
            build_assembly(model, ds, np.random.default_rng(9)),
            tmp_path / "ck.bin",
            tmp_path / "ck.json",
        )
        return ds

    def test_missing_names_rejected(self, tmp_path):
        ds = self._saved(tmp_path, replace(SMALL_MODEL, structure="jf"))
        asm = build_assembly(SMALL_MODEL, ds, np.random.default_rng(0))
        with pytest.raises(FormatError, match=r"missing \['head_i.b'"):
            load_checkpoint(asm, tmp_path / "ck.bin", tmp_path / "ck.json")

    def test_extra_names_rejected(self, tmp_path):
        ds = self._saved(tmp_path)
        asm = build_assembly(replace(SMALL_MODEL, structure="jf"), ds, np.random.default_rng(0))
        with pytest.raises(FormatError, match=r"unexpected \['head_i.b'"):
            load_checkpoint(asm, tmp_path / "ck.bin", tmp_path / "ck.json")

    def test_shape_mismatch_rejected_before_any_write(self, tmp_path):
        ds = self._saved(tmp_path, replace(SMALL_MODEL, image_features=6))
        asm = build_assembly(SMALL_MODEL, ds, np.random.default_rng(0))
        before = asm.state()
        with pytest.raises(FormatError, match="shape"):
            load_checkpoint(asm, tmp_path / "ck.bin", tmp_path / "ck.json")
        for name, arr in asm.state().items():
            np.testing.assert_array_equal(arr, before[name])

    def test_dtype_other_than_f8_rejected(self, tmp_path):
        import json

        ds = self._saved(tmp_path)
        manifest = json.loads((tmp_path / "ck.json").read_text())
        manifest["dtype"] = "<f4"
        (tmp_path / "ck.json").write_text(json.dumps(manifest))
        asm = build_assembly(SMALL_MODEL, ds, np.random.default_rng(0))
        with pytest.raises(FormatError, match="dtype"):
            load_checkpoint(asm, tmp_path / "ck.bin", tmp_path / "ck.json")

    def test_blob_size_differing_from_manifest_rejected(self, tmp_path):
        ds = self._saved(tmp_path)
        blob = (tmp_path / "ck.bin").read_bytes()
        asm = build_assembly(SMALL_MODEL, ds, np.random.default_rng(0))
        for damaged in (blob[:-8], blob + bytes(8)):
            (tmp_path / "ck.bin").write_bytes(damaged)
            with pytest.raises(FormatError):
                load_checkpoint(asm, tmp_path / "ck.bin", tmp_path / "ck.json")

    def _load_with_manifest(self, tmp_path, edit):
        """Save a checkpoint, replace its manifest by ``edit(manifest, text)``
        and load it into a fresh model."""
        ds = self._saved(tmp_path)
        manifest_path = tmp_path / "ck.json"
        text = manifest_path.read_text()
        manifest_path.write_text(edit(json.loads(text), text))
        asm = build_assembly(SMALL_MODEL, ds, np.random.default_rng(0))
        load_checkpoint(asm, tmp_path / "ck.bin", manifest_path)

    @staticmethod
    def _edit_first_entry(manifest, key, value):
        """The manifest text with ``key`` of its first array set to
        ``value``, or removed for None."""
        entry = next(iter(manifest["arrays"].values()))
        entry.pop(key)
        if value is not None:
            entry[key] = value
        return json.dumps(manifest)

    def test_truncated_manifest_rejected(self, tmp_path):
        with pytest.raises(FormatError, match="not valid JSON"):
            self._load_with_manifest(tmp_path, lambda m, text: text[: len(text) // 2])

    def test_non_object_manifest_rejected(self, tmp_path):
        with pytest.raises(FormatError, match="'arrays' object"):
            self._load_with_manifest(tmp_path, lambda m, text: f"[{text}]")

    def test_manifest_without_arrays_rejected(self, tmp_path):
        with pytest.raises(FormatError, match="'arrays' object"):
            self._load_with_manifest(tmp_path, lambda m, text: '{"dtype": "<f8"}')

    def test_entry_without_list_shape_rejected(self, tmp_path):
        for shape in (None, 3, "3", [2, "x"], [-1]):
            with pytest.raises(FormatError, match="list 'shape'"):
                self._load_with_manifest(
                    tmp_path, lambda m, text: self._edit_first_entry(m, "shape", shape)
                )

    def test_entry_without_integer_offset_rejected(self, tmp_path):
        for offset in (None, 0.0, "0"):
            with pytest.raises(FormatError, match="integer 'offset'"):
                self._load_with_manifest(
                    tmp_path, lambda m, text: self._edit_first_entry(m, "offset", offset)
                )

    @staticmethod
    def _move(manifest, name, offset_of):
        """The manifest text with array ``name`` moved to ``offset_of(arrays)``;
        every shape, and so the total size, stays as saved."""
        arrays = manifest["arrays"]
        arrays[name]["offset"] = offset_of(arrays)
        return json.dumps(manifest, sort_keys=True)

    def test_overlapping_arrays_rejected(self, tmp_path):
        # beta would receive the saved gamma, and beta's own bytes go unread
        def onto_gamma(arrays):
            return arrays["image_encoder.bn0.gamma"]["offset"]

        with pytest.raises(FormatError, match=r"not tile the blob at '\S+\.bn0\.(beta|gamma)'"):
            self._load_with_manifest(
                tmp_path,
                lambda m, text: self._move(m, "image_encoder.bn0.beta", onto_gamma),
            )

    def test_gap_between_arrays_rejected(self, tmp_path):
        # gamma starts 8 bytes late: a gap before it, an overlap after it
        def late(arrays):
            return arrays["image_encoder.bn0.gamma"]["offset"] + 8

        with pytest.raises(FormatError, match=r"not tile the blob at '\S+\.bn0\.gamma'"):
            self._load_with_manifest(
                tmp_path, lambda m, text: self._move(m, "image_encoder.bn0.gamma", late)
            )

    def test_state_names_and_shapes_pinned(self):
        # the checkpoint layout: every parameter, then every buffer, in this order
        ds = small_dataset(per_class=4)
        for (structure, fusion), expected in PINNED_STATE.items():
            model = ModelConfig(
                structure=structure, fusion=fusion, heads=3, image_features=8,
                metadata_features=4, channels=(2, 3, 4), metadata_hidden=(6,),
            )
            asm = build_assembly(model, ds, np.random.default_rng(0))
            got = [(name, arr.shape) for name, arr in asm.state().items()]
            assert got == expected, structure


PINNED_STATE = {
    ("image", "mmfa"): [
        ("image_encoder.conv0.w", (2, 3, 3, 3)),
        ("image_encoder.bn0.gamma", (2,)),
        ("image_encoder.bn0.beta", (2,)),
        ("image_encoder.conv1.w", (3, 2, 3, 3)),
        ("image_encoder.bn1.gamma", (3,)),
        ("image_encoder.bn1.beta", (3,)),
        ("image_encoder.conv2.w", (4, 3, 3, 3)),
        ("image_encoder.bn2.gamma", (4,)),
        ("image_encoder.bn2.beta", (4,)),
        ("image_encoder.proj.w", (4, 8)),
        ("image_encoder.proj.b", (8,)),
        ("head_i.w", (8, 2)),
        ("head_i.b", (2,)),
        ("image_encoder.bn0.running_mean", (2,)),
        ("image_encoder.bn0.running_var", (2,)),
        ("image_encoder.bn1.running_mean", (3,)),
        ("image_encoder.bn1.running_var", (3,)),
        ("image_encoder.bn2.running_mean", (4,)),
        ("image_encoder.bn2.running_var", (4,)),
    ],
    ("jf", "cat"): [
        ("image_encoder.conv0.w", (2, 3, 3, 3)),
        ("image_encoder.bn0.gamma", (2,)),
        ("image_encoder.bn0.beta", (2,)),
        ("image_encoder.conv1.w", (3, 2, 3, 3)),
        ("image_encoder.bn1.gamma", (3,)),
        ("image_encoder.bn1.beta", (3,)),
        ("image_encoder.conv2.w", (4, 3, 3, 3)),
        ("image_encoder.bn2.gamma", (4,)),
        ("image_encoder.bn2.beta", (4,)),
        ("image_encoder.proj.w", (4, 8)),
        ("image_encoder.proj.b", (8,)),
        ("metadata_encoder.block0.lin.w", (16, 6)),
        ("metadata_encoder.block0.bn.gamma", (6,)),
        ("metadata_encoder.block0.bn.beta", (6,)),
        ("metadata_encoder.block1.lin.w", (6, 4)),
        ("metadata_encoder.block1.bn.gamma", (4,)),
        ("metadata_encoder.block1.bn.beta", (4,)),
        ("head_im.w", (12, 2)),
        ("head_im.b", (2,)),
        ("image_encoder.bn0.running_mean", (2,)),
        ("image_encoder.bn0.running_var", (2,)),
        ("image_encoder.bn1.running_mean", (3,)),
        ("image_encoder.bn1.running_var", (3,)),
        ("image_encoder.bn2.running_mean", (4,)),
        ("image_encoder.bn2.running_var", (4,)),
        ("metadata_encoder.block0.bn.running_mean", (6,)),
        ("metadata_encoder.block0.bn.running_var", (6,)),
        ("metadata_encoder.block1.bn.running_mean", (4,)),
        ("metadata_encoder.block1.bn.running_var", (4,)),
    ],
    ("jif", "mmfa"): [
        ("image_encoder.conv0.w", (2, 3, 3, 3)),
        ("image_encoder.bn0.gamma", (2,)),
        ("image_encoder.bn0.beta", (2,)),
        ("image_encoder.conv1.w", (3, 2, 3, 3)),
        ("image_encoder.bn1.gamma", (3,)),
        ("image_encoder.bn1.beta", (3,)),
        ("image_encoder.conv2.w", (4, 3, 3, 3)),
        ("image_encoder.bn2.gamma", (4,)),
        ("image_encoder.bn2.beta", (4,)),
        ("image_encoder.proj.w", (4, 8)),
        ("image_encoder.proj.b", (8,)),
        ("metadata_encoder.block0.lin.w", (16, 6)),
        ("metadata_encoder.block0.bn.gamma", (6,)),
        ("metadata_encoder.block0.bn.beta", (6,)),
        ("metadata_encoder.block1.lin.w", (6, 4)),
        ("metadata_encoder.block1.bn.gamma", (4,)),
        ("metadata_encoder.block1.bn.beta", (4,)),
        ("fusion.qkv_img.lin.w", (8, 24)),
        ("fusion.qkv_img.bn.gamma", (24,)),
        ("fusion.qkv_img.bn.beta", (24,)),
        ("fusion.qkv_meta.lin.w", (4, 12)),
        ("fusion.qkv_meta.bn.gamma", (12,)),
        ("fusion.qkv_meta.bn.beta", (12,)),
        ("fusion.out.lin.w", (12, 12)),
        ("fusion.out.bn.gamma", (12,)),
        ("fusion.out.bn.beta", (12,)),
        ("head_im.w", (12, 2)),
        ("head_im.b", (2,)),
        ("head_i.w", (8, 2)),
        ("head_i.b", (2,)),
        ("head_m.w", (4, 2)),
        ("head_m.b", (2,)),
        ("image_encoder.bn0.running_mean", (2,)),
        ("image_encoder.bn0.running_var", (2,)),
        ("image_encoder.bn1.running_mean", (3,)),
        ("image_encoder.bn1.running_var", (3,)),
        ("image_encoder.bn2.running_mean", (4,)),
        ("image_encoder.bn2.running_var", (4,)),
        ("metadata_encoder.block0.bn.running_mean", (6,)),
        ("metadata_encoder.block0.bn.running_var", (6,)),
        ("metadata_encoder.block1.bn.running_mean", (4,)),
        ("metadata_encoder.block1.bn.running_var", (4,)),
        ("fusion.qkv_img.bn.running_mean", (24,)),
        ("fusion.qkv_img.bn.running_var", (24,)),
        ("fusion.qkv_meta.bn.running_mean", (12,)),
        ("fusion.qkv_meta.bn.running_var", (12,)),
        ("fusion.out.bn.running_mean", (12,)),
        ("fusion.out.bn.running_var", (12,)),
    ],
}
