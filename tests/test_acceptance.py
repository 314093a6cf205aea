"""Acceptance gate: one test per criterion, each printing a pass/fail line.

The scaled end-to-end comparison (criterion 10) trains a 5-seed x 5-fold
grid of both an attention-fusion joint-individual model and an image-only
baseline on a complementary synthetic dataset, so this module takes a few
minutes of CPU time.
"""

import math
import time

import numpy as np
import pytest
from scipy.stats import rankdata

from mmfuse import autodiff as ad
from mmfuse.autodiff import Tensor
from mmfuse.data import SyntheticSpec, generate_synthetic
from mmfuse.errors import DimensionError
from mmfuse.evaluation import (
    accuracy,
    auc_macro_ovr,
    balanced_accuracy,
    confusion,
    stratified_kfold,
)
from mmfuse.experiment import (
    ExperimentConfig,
    ModelConfig,
    build_assembly,
    run_experiment,
)
from mmfuse.gradcheck import gradcheck_suite
from mmfuse.fusion import MMFAFusion
from mmfuse.stats import FoldResultTable, compare_methods, friedman, wilcoxon_signed_rank
from mmfuse.structures import PredictionTriple, total_loss
from mmfuse.training import cosine_lr


def _report(ok, line):
    # visible with `pytest -s`; pytest -v shows one PASSED/FAILED line per criterion
    print(f"[{'PASS' if ok else 'FAIL'}] {line}", flush=True)
    assert ok, line


# ---------------------------------------------------------------------------
# criterion 1: gradient soundness of every differentiable block


def test_c01_gradient_soundness():
    t0 = time.time()
    reports = gradcheck_suite()
    elapsed = time.time() - t0
    names = {r.name for r in reports}
    required = {
        "metadata_encoder",
        "image_encoder",
        "concat_fusion",
        "mmfa",
        "head_fused",
        "head_image",
        "head_meta",
        "total_loss_beta_0",
        "total_loss_beta_0.5",
        "total_loss_beta_1",
        "model_image",
        "model_jf_cat",
        "model_jf_mmfa",
        "model_jif_cat",
        "model_jif_mmfa",
    }
    ok = required <= names and all(r.passed for r in reports) and elapsed < 60
    worst = max(r.max_rel_error for r in reports)
    _report(
        ok,
        f"criterion 1: gradcheck all {len(reports)} blocks < 1e-4 "
        f"(worst {worst:.2e}, {elapsed:.1f}s)",
    )


# ---------------------------------------------------------------------------
# criterion 2: fused output width always equals width(f_img) + width(f_meta)


def test_c02_output_width_law():
    rng = np.random.default_rng(20)
    checked = 0
    while checked < 20:
        d_img = int(rng.integers(2, 24))
        d_meta = int(rng.integers(1, 16))
        divisors = [h for h in range(1, d_img + d_meta + 1) if (d_img + d_meta) % h == 0]
        heads = int(rng.choice(divisors))
        mmfa = MMFAFusion(d_img, d_meta, rng=rng, heads=heads)
        b = int(rng.integers(1, 6))
        out = mmfa(
            Tensor(rng.normal(size=(b, d_img))),
            Tensor(rng.normal(size=(b, d_meta))),
            "train",
        )
        assert out.data.shape == (b, d_img + d_meta)
        checked += 1
    rejected = False
    try:
        MMFAFusion(6, 3, rng=rng, heads=4)  # 9 % 4 != 0
    except DimensionError:
        rejected = True
    _report(
        rejected and checked == 20,
        "criterion 2: output width == d_img + d_meta for 20 random configs; "
        "indivisible head count rejected",
    )


# ---------------------------------------------------------------------------
# criterion 3: zeroed attention module reduces exactly to concatenation


def test_c03_skip_identity():
    rng = np.random.default_rng(30)
    mmfa = MMFAFusion(8, 4, rng=rng, heads=3)
    for _, t in mmfa.params():
        t.data[...] = 0.0
    ok = True
    for i in range(100):
        b = int(rng.integers(1, 7))
        f_i = Tensor(rng.normal(scale=rng.uniform(0.1, 5.0), size=(b, 8)))
        f_m = Tensor(rng.normal(scale=rng.uniform(0.1, 5.0), size=(b, 4)))
        mode = "train" if i % 2 == 0 else "eval"
        fused = mmfa(f_i, f_m, mode)
        ok = ok and np.array_equal(fused.data, ad.concat(f_i, f_m).data)
    _report(ok, "criterion 3: zeroed module == concatenation bit-exactly on 100 batches")


# ---------------------------------------------------------------------------
# criterion 4: per-head attention weights stay on the simplex


def test_c04_attention_normalization():
    rng = np.random.default_rng(40)
    seen = 0
    worst = 0.0
    while seen < 1000:
        b = 50
        # F_Q, F_K and F_V as the image thirds, with no metadata part
        qkv = np.concatenate([rng.normal(scale=3.0, size=(b, 12)) for _ in range(3)], 1)
        _, weights = ad.gating_attention(Tensor(np.zeros((b, 0))), Tensor(qkv), 4)
        worst = max(worst, float(np.abs(weights.sum(axis=-1) - 1.0).max()))
        assert np.all(weights >= 0.0)
        seen += b
    _report(
        worst <= 1e-12,
        f"criterion 4: head weights sum to 1 within 1e-12 over {seen} samples "
        f"(worst |sum-1| = {worst:.1e})",
    )


# ---------------------------------------------------------------------------
# criterion 5: joint and joint-individual structures share the fused path


def test_c05_structure_equivalence():
    ds = generate_synthetic(
        SyntheticSpec(n_classes=3, per_class=6, image_shape=(3, 8, 8), seed=50)
    )
    base = dict(
        fusion="mmfa", image_features=8, metadata_features=4, heads=3,
        channels=(2, 3, 4), metadata_hidden=(6,),
    )
    bits_equal = True
    for mode in ("eval", "train"):
        jf = build_assembly(
            ModelConfig(structure="jf", report="ofb", **base), ds, np.random.default_rng(5)
        )
        jif = build_assembly(
            ModelConfig(structure="jif", **base), ds, np.random.default_rng(5)
        )
        images, meta = Tensor(ds.images[:6]), Tensor(ds.meta[:6])
        p_jf = ad._softmax(jf.forward(images, meta, mode).logits_im.data)
        p_jif = ad._softmax(jif.forward(images, meta, mode).logits_im.data)
        bits_equal = bits_equal and np.array_equal(p_jf, p_jif)

    jif = build_assembly(
        ModelConfig(structure="jif", **base), ds, np.random.default_rng(5)
    )
    triple = jif.forward(Tensor(ds.images[:6]), Tensor(ds.meta[:6]), "train")
    total, _ = total_loss(triple, ds.labels[:6], np.ones(3), 0.0, "jif")
    jif.zero_grads()
    total.backward()
    grads_zero = np.array_equal(
        jif.head_i.w.grad, np.zeros_like(jif.head_i.w.data)
    ) and np.array_equal(jif.head_i.b.grad, np.zeros_like(jif.head_i.b.data))
    _report(
        bits_equal and grads_zero,
        "criterion 5: JF and JIF fused predictions bit-identical; "
        "beta=0 zeroes the image-head gradient exactly",
    )


# ---------------------------------------------------------------------------
# criterion 6: total-loss formula and linearity in beta


def test_c06_loss_formula():
    rng = np.random.default_rng(6)
    triple = PredictionTriple(
        **{f"logits_{k}": Tensor(rng.normal(size=(5, 3))) for k in ("im", "i", "m")}
    )
    labels = np.array([0, 1, 2, 1, 0])
    runs = {
        beta: total_loss(triple, labels, np.array([0.5, 2.0, 1.0]), beta, "jif")
        for beta in (0.0, 0.25, 0.5, 0.75, 1.0)
    }
    comps = runs[0.0][1]
    exact = all(
        float(t.data) == c["L_I"] * b + c["L_M"] * (1.0 - b) + c["L_IM"]
        for b, (t, c) in runs.items()
    )
    # the components do not move with beta, so the total is linear in it
    linear = all(c == comps for _, c in runs.values()) and len(set(comps.values())) == 3
    _report(
        exact and linear,
        "criterion 6: total_loss == beta*L_I + (1-beta)*L_M + L_IM exactly, "
        "with beta-independent components, at 5 points",
    )


# ---------------------------------------------------------------------------
# criterion 7: metric implementations match brute-force oracles


def _bac_oracle(cm):
    recalls = []
    for c in range(cm.shape[0]):
        row = cm[c].sum()
        if row:
            recalls.append(cm[c, c] / row)
    return sum(recalls) / len(recalls)


def _auc_oracle(scores, y, c):
    pos = scores[y == c]
    neg = scores[y != c]
    wins = sum(
        1.0 if p > q else (0.5 if p == q else 0.0) for p in pos for q in neg
    )
    return wins / (len(pos) * len(neg))


def test_c07_metric_oracles():
    rng = np.random.default_rng(70)
    ok = True
    for _ in range(200):
        n_cls = int(rng.integers(2, 7))
        n = int(rng.integers(n_cls, 80))
        y_true = rng.integers(0, n_cls, size=n)
        while len(np.unique(y_true)) < n_cls:
            y_true = rng.integers(0, n_cls, size=n)
        y_pred = rng.integers(0, n_cls, size=n)
        cm = confusion(y_true, y_pred, n_cls)
        ok = ok and balanced_accuracy(cm) == _bac_oracle(cm)
        ok = ok and accuracy(cm) == np.trace(cm) / cm.sum()
    for _ in range(200):
        n_cls = int(rng.integers(2, 5))
        n = int(rng.integers(2 * n_cls, 40))
        y = rng.integers(0, n_cls, size=n)
        while len(np.unique(y)) < n_cls:
            y = rng.integers(0, n_cls, size=n)
        scores = np.round(rng.uniform(size=(n, n_cls)), 1)
        expected = np.mean([_auc_oracle(scores[:, c], y, c) for c in range(n_cls)])
        ok = ok and abs(auc_macro_ovr(scores, y) - expected) <= 1e-12
    y_true = np.array([0] * 75 + [1] * 25)
    majority = balanced_accuracy(confusion(y_true, np.zeros(100, dtype=int), 2))
    ok = ok and majority == 0.5
    _report(
        ok,
        "criterion 7: BAC/ACC exact and AUC within 1e-12 of brute force on "
        "200 cases each; always-majority BAC == 0.5",
    )


# ---------------------------------------------------------------------------
# criterion 8: exact Wilcoxon matches enumeration; Friedman fixture


def _wilcoxon_enum(a, b):
    d = a - b
    d = d[d != 0.0]
    n = d.size
    ranks = rankdata(np.abs(d))
    w_obs = ranks[d > 0].sum()
    patterns = ((np.arange(2**n)[:, None] >> np.arange(n)) & 1).astype(float)
    w_all = patterns @ ranks
    p_le = np.mean(w_all <= w_obs + 1e-12)
    p_ge = np.mean(w_all >= w_obs - 1e-12)
    return min(1.0, 2.0 * min(p_le, p_ge))


def test_c08_statistics_oracles():
    rng = np.random.default_rng(80)
    checked = 0
    ok = True
    while checked < 500:
        n = int(rng.integers(2, 13))
        a = np.round(rng.uniform(size=n), 1)
        b = np.round(rng.uniform(size=n), 1)
        if np.all(a == b):
            continue
        res = wilcoxon_signed_rank(a, b)
        ok = ok and res.n_effective <= 12
        ok = ok and abs(res.p_two_sided - _wilcoxon_enum(a, b)) <= 1e-12
        checked += 1
    fixture = FoldResultTable(
        methods=("m0", "m1", "m2"),
        runs=("r0", "r1", "r2"),
        values=np.tile([0.1, 0.2, 0.3], (3, 1)),
    )
    fr = friedman(fixture)
    ok = ok and fr.chi2 == 6.0 and abs(fr.p - np.exp(-3.0)) < 1e-6
    _report(
        ok,
        "criterion 8: exact Wilcoxon == enumeration on 500 samples (n<=12); "
        "Friedman fixture chi2=6, p=exp(-3)",
    )


# ---------------------------------------------------------------------------
# criterion 9: stratified folds partition with per-class balance


def test_c09_stratification():
    rng = np.random.default_rng(90)
    ok = True
    for _ in range(100):
        k = 5
        n_cls = int(rng.integers(1, 7))
        n = int(rng.integers(k, 150))
        labels = rng.integers(0, n_cls, size=n)
        folds = stratified_kfold(labels, k, seed=int(rng.integers(1000)))
        allidx = np.concatenate(list(folds))
        ok = ok and len(allidx) == n and len(np.unique(allidx)) == n
        for c in np.unique(labels):
            counts = [int((labels[f] == c).sum()) for f in folds]
            ok = ok and max(counts) - min(counts) <= 1
    _report(ok, "criterion 9: 100 random stratifications partition with <=1 imbalance")


# ---------------------------------------------------------------------------
# criterion 10: scaled qualitative reproduction (fusion helps)


SCALED_SYNTH = {
    "n_classes": 6,
    "per_class": 60,
    "image_shape": [3, 16, 16],
    "alpha_img": 1.0,
    "alpha_meta": 1.0,
    "noise": 0.1,
    "mode": "complementary",
    "seed": 2024,
}
SCALED_TRAIN = {"epochs": 30, "patience": 12, "batch_size": 16, "augment": False}
SCALED_COMMON = {
    "folds": 5,
    "seeds": [0, 1, 2, 3, 4],
    "split_seed": 7,
    "save_checkpoints": False,
}


@pytest.fixture(scope="module")
def scaled_runs(tmp_path_factory):
    root = tmp_path_factory.mktemp("scaled")
    t0 = time.time()
    jif_cfg = ExperimentConfig.from_dict(
        {
            "dataset": {"synthetic": SCALED_SYNTH},
            "model": {
                "structure": "jif",
                "fusion": "mmfa",
                "report": "all",
                "heads": 8,
                "image_features": 64,
                "metadata_features": 32,
                "channels": [8, 16, 32],
                "metadata_hidden": [32],
            },
            "train": SCALED_TRAIN,
            "out": str(root / "jif_mmfa"),
            **SCALED_COMMON,
        }
    )
    img_cfg = ExperimentConfig.from_dict(
        {
            "dataset": {"synthetic": SCALED_SYNTH},
            "model": {
                "structure": "image",
                "image_features": 64,
                "channels": [8, 16, 32],
            },
            "train": SCALED_TRAIN,
            "out": str(root / "image_only"),
            **SCALED_COMMON,
        }
    )
    jif_res = run_experiment(jif_cfg)
    img_res = run_experiment(img_cfg)
    elapsed = time.time() - t0
    return jif_res, img_res, elapsed, root


def test_c10_scaled_reproduction(scaled_runs):
    jif_res, img_res, elapsed, root = scaled_runs
    assert not jif_res.failures and not img_res.failures
    rows = jif_res.rows + img_res.rows
    table = FoldResultTable.from_rows(
        [(r["method"], r["run"], r["bac"]) for r in rows]
    )
    mean = {m: float(np.mean(table.column(m))) for m in table.methods}
    all_bac = mean["JIF-MMFA-ALL"]
    ofb_bac = mean["JIF-MMFA-OFB"]
    img_bac = mean["Image"]

    report = compare_methods(table, alpha=0.05)
    pair = next(
        r
        for r in report.pairwise
        if {r.method_a, r.method_b} == {"JIF-MMFA-ALL", "Image"}
    )
    ok = (
        all_bac >= ofb_bac - 0.02
        and all_bac > img_bac + 0.10
        and report.gated
        and pair.significant
        and elapsed < 15 * 60
    )
    _report(
        ok,
        f"criterion 10: JIF-MMFA-ALL {all_bac:.3f} vs OFB {ofb_bac:.3f} vs "
        f"Image {img_bac:.3f}; exact Wilcoxon p = {pair.p:.2e}, "
        f"Holm p = {pair.p_holm:.2e} < 0.05 "
        f"({elapsed:.0f}s)",
    )


# ---------------------------------------------------------------------------
# criterion 11: schedule trace and byte-identical reruns


def test_c11_schedule_and_determinism(tmp_path):
    cfg_dict = {
        "dataset": {
            "synthetic": {
                "n_classes": 2,
                "per_class": 12,
                "image_shape": [3, 8, 8],
                "alpha_img": 1.0,
                "alpha_meta": 1.0,
                "noise": 0.05,
                "seed": 3,
            }
        },
        "model": {
            "structure": "jif",
            "fusion": "mmfa",
            "report": "all",
            "heads": 3,
            "image_features": 8,
            "metadata_features": 4,
            "channels": [2, 3, 4],
            "metadata_hidden": [6],
        },
        "train": {"epochs": 4, "patience": 4, "batch_size": 8, "lr0": 0.005,
                  "augment": True},
        "folds": 3,
        "seeds": [0],
    }
    outputs = []
    # the first run is serial, the second runs on the default jobs
    for sub, jobs in (("first", {"jobs": 1}), ("second", {})):
        cfg = ExperimentConfig.from_dict({**cfg_dict, "out": str(tmp_path / sub), **jobs})
        res = run_experiment(cfg)
        assert not res.failures
        outputs.append((tmp_path / sub / "results.csv").read_bytes())

    identical = outputs[0] == outputs[1]

    log_path = tmp_path / "first" / "JIF-MMFA" / "f0-s0" / "trainlog.csv"
    lines = log_path.read_text().splitlines()[1:]
    lrs = [float(l.split(",")[1]) for l in lines]
    expected = [cosine_lr(t, 4, 0.005) for t in range(len(lines))]
    # the CSV carries 12 significant digits
    trace_ok = lrs[0] == 0.005 and all(
        math.isclose(a, b, rel_tol=1e-11) for a, b in zip(lrs, expected)
    )
    _report(
        identical and trace_ok,
        "criterion 11: lr trace equals the closed-form cosine schedule "
        "(t=0 -> 0.005); reruns byte-identical (jobs 1 and the default)",
    )
