"""Reproducible fold x seed experiment runs over one model configuration.

A run trains the configured structure once per (fold, seed) pair of a
stratified k-fold split, evaluates the held-out fold, and emits rows
``method, run, bac, acc, auc`` (a joint-individual structure in "all"
report mode yields both its fusion-branch and decision-fused variants from
the same trained model). Every random draw derives from the config, so a
rerun writes byte-identical results.

A grid runs on ``jobs`` processes, the caller included, which default to
the CPUs this process may use. A grid with one job or one run starts no
process and runs its (fold, seed) runs in order. Otherwise each process
claims the next run from one shared counter until none is left; outcomes
are put back in task order, so the files a grid writes do not depend on
``jobs`` or on which process ran what.
Workers receive only the config and the task list: a forked worker shares
the caller's dataset and folds, and a spawned one builds them again from
the config, which gives the same arrays.
Every grid process runs BLAS on one thread: with OpenBLAS at its default
thread count, two processes on two CPUs oversubscribe them and run the
criterion-10 grid several times slower than one.
"""

import ctypes
import hashlib
import json
import os
import platform
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .data import SyntheticSpec, generate_synthetic, load_dataset
from .errors import Config, ConfigError, NumericError
from .evaluation import confusion, metric_report, stratified_kfold
from .structures import STRUCTURES, ModelAssembly, reported_scores
from .training import TrainConfig, predict_probs, save_checkpoint, train

FUSIONS = ("cat", "mmfa")
REPORTS = ("ofb", "all")


@dataclass(frozen=True)
class ModelConfig(Config):
    structure: str = "jif"
    fusion: str = "mmfa"
    report: str = "all"
    heads: int = 8
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


def _usable_cpus():
    """Number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@dataclass(frozen=True)
class ExperimentConfig(Config):
    dataset: DatasetConfig = field(default_factory=DatasetConfig)
    model: ModelConfig = field(default_factory=ModelConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    folds: int = 5
    seeds: tuple[int, ...] = (0,)
    split_seed: int = 0
    out: str | None = None
    save_checkpoints: bool = True
    jobs: int = field(default_factory=_usable_cpus)

    def validate(self):
        if self.folds < 3:
            raise ConfigError(
                "experiment runs need k >= 3 folds (held-out test, validation, training)"
            )
        if not self.seeds:
            raise ConfigError("need at least one seed")
        if min(self.seeds) < 0 or self.split_seed < 0:
            raise ConfigError("seeds and split_seed must be >= 0")
        if len(set(self.seeds)) != len(self.seeds):
            raise ConfigError(f"seeds must be distinct, got {list(self.seeds)}")
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


def resolve_dataset(source):
    """The Dataset that a ``DatasetConfig`` names."""
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


def _grid_data(cfg):
    """The dataset and the stratified folds of the grid ``cfg`` describes.

    The images and metadata are cast to float32 here, once per grid, so
    every run of the grid trains and scores in float32. A grid needs two
    classes or more, each with at least one sample per fold: exactly then
    every test, validation and training split holds every class, which
    per-fold BAC and AUC need. Otherwise this raises before any run trains.
    """
    dataset = resolve_dataset(cfg.dataset)
    counts = np.bincount(dataset.labels, minlength=dataset.n_classes)
    if counts.size < 2 or counts.min() < cfg.folds:
        sizes = dict(zip(dataset.schema.classes, counts.tolist()))
        raise ConfigError(
            f"every fold must hold every class, so a grid of {cfg.folds} folds needs "
            f"2 or more classes of at least {cfg.folds} samples each; class sizes: {sizes}"
        )
    dataset = replace(
        dataset, images=dataset.images.astype(np.float32), meta=dataset.meta.astype(np.float32)
    )
    return dataset, stratified_kfold(dataset.labels, cfg.folds, cfg.split_seed)


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
            assembly, dataset, train_idx, val_idx, train_cfg, report=cfg.model.report
        )
    except NumericError as e:
        return RunOutcome(run=run_id, rows=[], failed=True, error=str(e))

    probs = predict_probs(assembly, dataset, test_idx)
    labels = dataset.labels[test_idx]
    rows = []
    reports = {}
    for method, key in method_variants(cfg.model):
        scores = probs[key]
        cm = confusion(labels, scores.argmax(axis=1), dataset.n_classes)
        rep = metric_report(cm, scores, labels)
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
            save_checkpoint(assembly, os.path.join(run_dir, "checkpoint.npy"))
        for method, (cm, rep) in reports.items():
            with open(os.path.join(run_dir, f"metrics_{method}.json"), "w", encoding="utf-8") as fh:
                json.dump(rep, fh, indent=2)
            _write_confusion(
                os.path.join(run_dir, f"confusion_{method}.csv"),
                cm,
                dataset.schema.classes,
            )
    return RunOutcome(run=run_id, rows=rows)


# thread-count getter and setter names, "{}" being "get" or "set", of the
# OpenBLAS builds numpy and scipy wheels or a system library provide
_OPENBLAS_SYMBOLS = (
    "scipy_openblas_{}_num_threads64_",
    "scipy_openblas_{}_num_threads",
    "openblas_{}_num_threads64_",
    "openblas_{}_num_threads",
)


def _openblas_paths(maps_lines):
    """Paths of the OpenBLAS libraries that lines of ``/proc/<pid>/maps`` map.

    The path is everything after the fifth field, so it may hold spaces. The
    kernel marks a file removed since it was mapped with " (deleted)"; the
    path without that mark still names the loaded library to the loader.
    """
    paths = set()
    for line in maps_lines:
        fields = line.split(maxsplit=5)
        if len(fields) < 6:  # an anonymous mapping
            continue
        path = fields[5].rstrip("\n").removesuffix(" (deleted)")
        if "openblas" in os.path.basename(path).lower():
            paths.add(path)
    return sorted(paths)


def _openblas_libs():
    """(get, set) thread-count functions of each OpenBLAS loaded in this process."""
    try:
        with open("/proc/self/maps") as fh:
            paths = _openblas_paths(fh)
    except OSError:  # no /proc: the libraries cannot be found, so none is pinned
        return []
    libs = []
    for path in paths:
        try:  # RTLD_NOLOAD: a handle to the library loaded, never a second copy
            handle = ctypes.CDLL(path, mode=os.RTLD_NOLOAD)
        except OSError:  # e.g. a removed file the loader no longer knows by this path
            continue
        for symbol in _OPENBLAS_SYMBOLS:
            get = getattr(handle, symbol.format("get"), None)
            set_ = getattr(handle, symbol.format("set"), None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                libs.append((get, set_))
                break
    return libs


def _one_blas_thread():
    """Set every loaded OpenBLAS to one thread; return (setter, earlier count) pairs."""
    earlier = [(set_, get()) for get, set_ in _openblas_libs()]
    for set_, _ in earlier:
        set_(1)
    return earlier


def _claim_runs(grid, counter):
    """(task index, outcome) of each run this process claims from the pool's ``counter``.

    ``grid`` is (cfg, dataset, folds, tasks). A run that raises anything but
    the ``NumericError`` that ``_run_single`` turns into a failed run moves
    the counter past the last task, so no process claims another.
    """
    cfg, dataset, folds, tasks = grid
    claimed = []
    while True:
        with counter.get_lock():
            i = counter.value
            counter.value = i + 1
        if i >= len(tasks):
            return claimed
        try:
            claimed.append((i, _run_single(cfg, dataset, folds, *tasks[i])))
        except BaseException:
            with counter.get_lock():
                counter.value = len(tasks)
            raise


# (dataset, folds) of the grid being run, set by the caller while its pool
# is open: forked workers inherit it, spawned ones build their own
_GRID_DATA = None
_WORKER = None  # (grid, counter) of the grid a pool worker serves


def _init_worker(cfg, tasks, counter):
    """Only the config, the tasks and the counter cross the pipe, so a worker
    that dies while it starts cannot block the caller mid-write."""
    global _WORKER
    data = _GRID_DATA
    if data is None:  # spawn or forkserver: nothing inherited
        data = _grid_data(cfg)
    _WORKER = ((cfg, *data, tasks), counter)
    _one_blas_thread()


def _worker_claims():
    return _claim_runs(*_WORKER)


def _run_grid(grid, jobs):
    """Outcomes of the grid's runs in task order, from ``jobs`` processes, the caller one of them."""
    global _GRID_DATA
    cfg, dataset, folds, tasks = grid
    if jobs == 1:
        return [_run_single(cfg, dataset, folds, *task) for task in tasks]
    # here, so that a serial grid and the import stay without the pool's modules
    import concurrent.futures
    import multiprocessing

    counter = multiprocessing.Value("q", 0)
    _GRID_DATA = dataset, folds
    try:
        with concurrent.futures.ProcessPoolExecutor(
            jobs - 1, initializer=_init_worker, initargs=(cfg, tasks, counter)
        ) as pool:
            workers = [pool.submit(_worker_claims) for _ in range(jobs - 1)]
            claimed = _claim_runs(grid, counter)
            for worker in workers:
                claimed += worker.result()
    finally:
        _GRID_DATA = None
    return [outcome for _, outcome in sorted(claimed, key=lambda c: c[0])]


def _write_confusion(path, cm, classes):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("true\\pred," + ",".join(classes) + "\n")
        for i, row in enumerate(cm):
            fh.write(classes[i] + "," + ",".join(str(int(v)) for v in row) + "\n")


def run_experiment(cfg):
    """Train and evaluate the full fold x seed grid; write artifacts under out.

    The grid runs on ``min(cfg.jobs, runs)`` processes, the caller included,
    each with BLAS on one thread; the caller's BLAS thread count is restored
    on return. An error other than a run's ``NumericError`` stops every
    process from claiming another run and is raised once the runs in flight
    have finished.
    """
    blas = _one_blas_thread()
    try:
        dataset, folds = _grid_data(cfg)
        tasks = [(seed, fold) for seed in cfg.seeds for fold in range(cfg.folds)]
        if cfg.out is not None:
            os.makedirs(cfg.out, exist_ok=True)
        outcomes = _run_grid((cfg, dataset, folds, tasks), min(cfg.jobs, len(tasks)))
    finally:
        for set_, threads in blas:
            set_(threads)

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
    with open(path, "w", newline="", encoding="utf-8") as fh:
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
    with open(os.path.join(cfg.out, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)

