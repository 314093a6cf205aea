"""Reproducible fold x seed experiment runs over one model configuration.

A run trains the configured structure once per (fold, seed) pair of a
stratified k-fold split, evaluates the held-out fold, and emits rows
``method, run, bac, acc, auc`` (a joint-individual structure in "all"
report mode yields both its fusion-branch and decision-fused variants from
the same trained model). Every random draw derives from the config, so a
rerun writes byte-identical results.
"""

import concurrent.futures
import hashlib
import json
import os
import platform
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor, grad_check
from .data import SyntheticSpec, generate_synthetic, load_dataset
from .encoders import ImageEncoder, MetadataEncoder
from .errors import Config, ConfigError, NumericError
from .evaluation import confusion, metric_report, stratified_kfold
from .fusion import ConcatFusion, MMFAFusion
from .structures import (
    STRUCTURES,
    ModelAssembly,
    combine_losses,
    make_head,
    reported_scores,
    weighted_ce,
)
from .training import (
    TrainConfig,
    predict_probs,
    save_checkpoint,
    train,
)

FUSIONS = ("cat", "mmfa")
REPORTS = ("ofb", "all")


@dataclass(frozen=True)
class ModelConfig(Config):
    structure: str = "jif"
    fusion: str = "mmfa"
    report: str = "all"
    heads: int = 8
    scale_after_softmax: bool = False
    image_features: int = 128
    metadata_features: int = 64
    channels: tuple[int, ...] = (8, 16, 32)
    metadata_hidden: tuple[int, ...] = (64,)

    def validate(self):
        if self.structure not in STRUCTURES:
            raise ConfigError(f"unknown structure {self.structure!r}")
        if self.fusion not in FUSIONS:
            raise ConfigError(f"unknown fusion {self.fusion!r}")
        if self.report not in REPORTS:
            raise ConfigError(f"unknown report mode {self.report!r}")
        for key in ("image_features", "metadata_features", "channels", "metadata_hidden"):
            if min(np.atleast_1d(getattr(self, key)), default=1) < 1:
                raise ConfigError(f"model {key} must be >= 1")
        if len(self.channels) != 3:
            raise ConfigError("model channels needs 3 widths, one per conv block")
        width = self.image_features + self.metadata_features
        if self.fusion == "mmfa" and "im" in STRUCTURES[self.structure] and (
            self.heads < 1 or width % self.heads
        ):
            raise ConfigError(f"heads={self.heads} must divide attention width {width}")


@dataclass(frozen=True)
class DatasetConfig(Config):
    """The ``dataset`` section: a synthetic spec, or a directory to load
    (optionally resized to ``resize`` = (height, width))."""

    synthetic: SyntheticSpec | None = None
    dir: str | None = None
    resize: tuple[int, ...] | None = None

    def validate(self):
        if (self.synthetic is None) == (self.dir is None):
            raise ConfigError("dataset needs exactly one of 'synthetic' or 'dir'")
        size = self.resize
        if size is not None and (self.dir is None or len(size) != 2 or min(size) < 1):
            raise ConfigError(f"dataset resize must be 2 sizes >= 1 with 'dir', got {size}")


@dataclass(frozen=True)
class ExperimentConfig(Config):
    dataset: dict = field(default_factory=dict)
    model: ModelConfig = field(default_factory=ModelConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    folds: int = 5
    seeds: tuple[int, ...] = (0,)
    split_seed: int = 0
    out: str | None = None
    save_checkpoints: bool = True
    jobs: int = 1

    def validate(self):
        # ``dataset`` stays the raw dict, so digests and manifests keep its bytes
        DatasetConfig.from_dict(self.dataset, "dataset.")
        if self.folds < 3:
            raise ConfigError(
                "experiment runs need k >= 3 folds (held-out test, validation, training)"
            )
        if not self.seeds:
            raise ConfigError("need at least one seed")
        if min(self.seeds) < 0 or self.split_seed < 0:
            raise ConfigError("seeds and split_seed must be >= 0")
        if self.jobs < 1:
            raise ConfigError(f"jobs must be >= 1, got {self.jobs}")


def _set_path(raw, dotted, value):
    """Apply a --set key.path=value override onto the raw config dict."""
    parts = dotted.split(".")
    node = raw
    for i, p in enumerate(parts[:-1]):
        node = node.setdefault(p, {})
        if not isinstance(node, dict):
            prefix = ".".join(parts[: i + 1])
            raise ConfigError(f"override {dotted!r}: {prefix!r} is not a section")
    try:
        node[parts[-1]] = json.loads(value)
    except json.JSONDecodeError:
        node[parts[-1]] = value


def resolve_dataset(dataset_cfg):
    """The Dataset that a raw ``dataset`` config section names."""
    source = DatasetConfig.from_dict(dataset_cfg, "dataset.")
    if source.synthetic is not None:
        return generate_synthetic(source.synthetic)
    return load_dataset(source.dir, size=source.resize)


def build_assembly(model_cfg, dataset, rng):
    """The configured structure; ``ModelAssembly`` says how it draws ``rng``."""
    return ModelAssembly(model_cfg, dataset, rng)


def method_base(model_cfg):
    if model_cfg.structure == "image":
        return "Image"
    return f"{model_cfg.structure.upper()}-{model_cfg.fusion.upper()}"


def method_variants(model_cfg):
    """(method name, probability key) pairs the structure reports."""
    base = method_base(model_cfg)
    return [
        (base + suffix, key)
        for suffix, key in reported_scores(model_cfg.structure, model_cfg.report)
    ]


@dataclass
class RunOutcome:
    run: str
    rows: list
    failed: bool = False
    error: str = ""


@dataclass
class ExperimentResult:
    rows: list
    failures: list


def _derived_seed(*parts):
    return int(np.random.SeedSequence(list(parts)).generate_state(1)[0])


def _run_single(cfg, dataset, folds, seed, fold_idx):
    run_id = f"f{fold_idx}-s{seed}"
    k = len(folds)
    test_idx = folds[fold_idx]
    val_idx = folds[(fold_idx + 1) % k]
    train_idx = np.sort(
        np.concatenate(
            [folds[j] for j in range(k) if j != fold_idx and j != (fold_idx + 1) % k]
        )
    )
    rng = np.random.default_rng([cfg.split_seed, seed, fold_idx])
    assembly = build_assembly(cfg.model, dataset, rng)
    train_cfg = replace(cfg.train, seed=_derived_seed(cfg.train.seed, seed, fold_idx))
    try:
        assembly, log = train(
            assembly,
            dataset.subset(train_idx),
            dataset.subset(val_idx),
            train_cfg,
            report=cfg.model.report,
        )
    except NumericError as e:
        return RunOutcome(run=run_id, rows=[], failed=True, error=str(e))

    test_set = dataset.subset(test_idx)
    probs = predict_probs(assembly, test_set)
    rows = []
    reports = {}
    for method, key in method_variants(cfg.model):
        scores = probs[key]
        cm = confusion(test_set.labels, scores.argmax(axis=1), dataset.n_classes)
        rep = metric_report(cm, scores, test_set.labels)
        rows.append(
            {
                "method": method,
                "run": run_id,
                "bac": rep["bac"],
                "acc": rep["acc"],
                "auc": rep["auc"],
            }
        )
        reports[method] = (cm, rep)

    if cfg.out is not None:
        run_dir = os.path.join(cfg.out, method_base(cfg.model), run_id)
        os.makedirs(run_dir, exist_ok=True)
        log.write_csv(os.path.join(run_dir, "trainlog.csv"))
        if cfg.save_checkpoints:
            save_checkpoint(
                assembly,
                os.path.join(run_dir, "checkpoint.bin"),
                os.path.join(run_dir, "checkpoint.json"),
            )
        for method, (cm, rep) in reports.items():
            with open(os.path.join(run_dir, f"metrics_{method}.json"), "w") as fh:
                json.dump(rep, fh, indent=2)
            _write_confusion(
                os.path.join(run_dir, f"confusion_{method}.csv"),
                cm,
                dataset.schema.classes,
            )
    return RunOutcome(run=run_id, rows=rows)


def _write_confusion(path, cm, classes):
    with open(path, "w") as fh:
        fh.write("true\\pred," + ",".join(classes) + "\n")
        for i, row in enumerate(cm):
            fh.write(classes[i] + "," + ",".join(str(int(v)) for v in row) + "\n")


def run_experiment(cfg):
    """Train and evaluate the full fold x seed grid; write artifacts under out."""
    dataset = resolve_dataset(cfg.dataset)
    folds = stratified_kfold(dataset.labels, cfg.folds, cfg.split_seed)
    tasks = [(seed, fold) for seed in cfg.seeds for fold in range(cfg.folds)]
    if cfg.out is not None:
        os.makedirs(cfg.out, exist_ok=True)

    if cfg.jobs > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=cfg.jobs) as pool:
            outcomes = list(
                pool.map(
                    _run_single,
                    *zip(*[(cfg, dataset, folds, s, f) for s, f in tasks]),
                )
            )
    else:
        outcomes = [_run_single(cfg, dataset, folds, s, f) for s, f in tasks]

    rows, failures = [], []
    for outcome in outcomes:
        rows.extend(outcome.rows)
        if outcome.failed:
            failures.append({"run": outcome.run, "error": outcome.error})

    if cfg.out is not None:
        _write_results_csv(os.path.join(cfg.out, "results.csv"), rows)
        _write_manifest(cfg, failures)
    return ExperimentResult(rows=rows, failures=failures)


def _write_results_csv(path, rows):
    with open(path, "w", newline="") as fh:
        fh.write("method,run,bac,acc,auc\n")
        for r in rows:
            fh.write(
                f"{r['method']},{r['run']},{r['bac']:.12g},{r['acc']:.12g},"
                f"{r['auc']:.12g}\n"
            )


def config_digest(cfg):
    blob = json.dumps(_digested(cfg), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def _digested(cfg):
    """The config as plain data, minus ``out`` and ``jobs``, which leave results unchanged."""
    d = asdict(cfg)
    del d["out"], d["jobs"]
    return d


def _write_manifest(cfg, failures):
    manifest = {
        "config": _digested(cfg),
        "config_sha256": config_digest(cfg),
        "versions": {
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "failures": failures,
    }
    with open(os.path.join(cfg.out, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)


# ---------------------------------------------------------------------------
# finite-difference verification of every differentiable block


@dataclass
class BlockReport:
    name: str
    max_rel_error: float
    passed: bool


def _check_targets(name, targets, loss_fn, step, tol):
    worst = 0.0
    for _, tensor in targets:
        rep = grad_check(lambda _t: loss_fn(), tensor, step=step, tol=tol)
        worst = max(worst, rep.max_rel_error)
    return BlockReport(name=name, max_rel_error=worst, passed=worst < tol)


def _sumsq(t):
    return ad.mul(t, t).sum()


def gradcheck_suite(step=1e-5, tol=1e-4):
    """Finite-difference checks over every differentiable block at toy sizes."""
    reports = []

    rng = np.random.default_rng(11)
    enc = MetadataEncoder(in_width=7, out_dim=5, hidden=(6,), rng=rng)
    x = Tensor(rng.normal(size=(3, 7)), requires_grad=True, name="meta_in")
    targets = [("meta_in", x)] + enc.params()
    reports.append(
        _check_targets(
            "metadata_encoder", targets, lambda: _sumsq(enc(x, "train")), step, tol
        )
    )

    rng = np.random.default_rng(12)
    ienc = ImageEncoder(in_shape=(3, 8, 8), channels=(2, 3, 4), out_dim=5, rng=rng)
    xi = Tensor(rng.normal(size=(4, 3, 8, 8)), requires_grad=True, name="img_in")
    targets = [("img_in", xi)] + ienc.params()
    reports.append(
        _check_targets(
            "image_encoder", targets, lambda: _sumsq(ienc(xi, "train")), step, tol
        )
    )

    rng = np.random.default_rng(13)
    fi = Tensor(rng.normal(size=(3, 4)), requires_grad=True, name="f_img")
    fm = Tensor(rng.normal(size=(3, 2)), requires_grad=True, name="f_meta")
    cat = ConcatFusion(4, 2)
    reports.append(
        _check_targets(
            "concat_fusion",
            [("f_img", fi), ("f_meta", fm)],
            lambda: _sumsq(cat(fi, fm, "train")),
            step,
            tol,
        )
    )

    for label, post in (("mmfa", False), ("mmfa_post_softmax_scale", True)):
        rng = np.random.default_rng(14)
        mmfa = MMFAFusion(6, 3, rng=rng, heads=3, scale_after_softmax=post)
        fi = Tensor(rng.normal(size=(4, 6)), requires_grad=True, name="f_img")
        fm = Tensor(rng.normal(size=(4, 3)), requires_grad=True, name="f_meta")
        targets = [("f_img", fi), ("f_meta", fm)] + mmfa.params()
        reports.append(
            _check_targets(
                label,
                targets,
                lambda m=mmfa, a=fi, b=fm: _sumsq(m(a, b, "train")),
                step,
                tol,
            )
        )

    rng = np.random.default_rng(15)
    labels = rng.integers(0, 3, size=6)
    weights = np.array([1.5, 0.75, 1.0])
    for label, width in (("head_fused", 9), ("head_image", 6), ("head_meta", 3)):
        head = make_head(width, 3, rng)
        feats = Tensor(rng.normal(size=(6, width)), requires_grad=True, name="feats")
        targets = [("feats", feats)] + head.params()
        reports.append(
            _check_targets(
                label,
                targets,
                lambda h=head, f=feats: weighted_ce(h(f), labels, weights),
                step,
                tol,
            )
        )

    rng = np.random.default_rng(16)
    for beta in (0.0, 0.5, 1.0):
        zs = [
            Tensor(rng.normal(size=(4, 3)), requires_grad=True, name=f"logits{j}")
            for j in range(3)
        ]
        lbl = rng.integers(0, 3, size=4)

        def loss_fn(zs=zs, lbl=lbl, beta=beta):
            l_i = weighted_ce(zs[0], lbl, weights)
            l_m = weighted_ce(zs[1], lbl, weights)
            l_im = weighted_ce(zs[2], lbl, weights)
            return combine_losses(l_i, l_m, l_im, beta)

        targets = [(f"logits{j}", z) for j, z in enumerate(zs)]
        reports.append(
            _check_targets(f"total_loss_beta_{beta:g}", targets, loss_fn, step, tol)
        )

    return reports
