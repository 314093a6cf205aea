"""Child process of the benchmark; prints one JSON object as its last line.

``setup``  times ``import mmfuse.experiment`` plus the build of one
           workload's ExperimentConfig, in a fresh interpreter.
``grids``  calls ``run_experiment`` on the workload's config, one grid
           after another (a closed loop with one caller), checks each
           grid's artifacts, and reports per-grid wall time and outputs.
           ``--traced 1`` installs the tracer first; ``--blocks N`` then
           times the isolated block table with N repetitions per block.
           Pool workers spool their peak RSS when they exit, so that the
           payload's peak_rss_mb sums this process and its workers.

run.py starts it with src/ on PYTHONPATH and the BLAS thread variables
set, so that BLAS starts single-threaded.
"""

import argparse
import csv
import glob
import hashlib
import json
import multiprocessing.util
import os
import platform
import resource
import shutil
import statistics
import sys
import time

from workloads import BLOCKS_WORKLOAD, FOLDS, RUN_SEEDS, WORKLOADS


def setup_probe(workload, seed):
    t0 = time.perf_counter()
    from mmfuse.experiment import ExperimentConfig

    ExperimentConfig.from_dict(workload.config(seed))
    return {"setup_s": time.perf_counter() - t0}


def train_sizes(cfg):
    """Training-split size of each fold's run (the test and validation folds are held out)."""
    from mmfuse.evaluation import stratified_kfold
    from mmfuse.experiment import resolve_dataset

    labels = resolve_dataset(cfg.dataset).labels
    folds = stratified_kfold(labels, cfg.folds, cfg.split_seed)
    k = len(folds)
    return [len(labels) - len(folds[f]) - len(folds[(f + 1) % k]) for f in range(k)]


def grid_record(workload, out_dir, result, grid_s, sizes):
    """Outputs of one finished grid, read back from its artifacts."""
    with open(os.path.join(out_dir, "results.csv"), "rb") as fh:
        blob = fh.read()
    rows = list(csv.DictReader(blob.decode().splitlines()))
    reported = [float(r["bac"]) for r in rows if r["method"] == workload.reported]
    samples = 0
    runs_logged = 0
    for path in glob.glob(os.path.join(out_dir, "*", "*", "trainlog.csv")):
        run_id = os.path.basename(os.path.dirname(path))  # f<fold>-s<seed>
        with open(path) as fh:
            epochs = sum(1 for _ in fh) - 1
        samples += epochs * sizes[int(run_id.split("-")[0][1:])]
        runs_logged += 1
    keys = sorted({(r["method"], r["run"]) for r in rows})
    return {
        "grid_s": grid_s,
        "runs": FOLDS * len(RUN_SEEDS),
        "runs_failed": len(result.failures),
        "runs_logged": runs_logged,
        "rows_missing": sorted(workload.expected_rows() - set(keys)),
        "rows_duplicated": len(rows) - len(keys),
        "train_samples": samples,
        "bac_mean": statistics.fmean(reported) if reported else 0.0,
        "results_sha256": hashlib.sha256(blob).hexdigest(),
    }


class WorkerPeaks:
    """Peak RSS of the pool workers forked from this process.

    A hook run after each fork registers a finalizer that multiprocessing
    calls when the worker exits; it writes the worker's ``ru_maxrss`` to the
    spool directory. The package itself is not touched.
    """

    def __init__(self, spool_dir):
        self.spool_dir = spool_dir
        os.makedirs(spool_dir, exist_ok=True)
        multiprocessing.util.register_after_fork(self, WorkerPeaks._in_worker)

    def _in_worker(self):
        multiprocessing.util.Finalize(None, self._spool, exitpriority=0)

    def _spool(self):
        path = os.path.join(self.spool_dir, f"{os.getpid()}.kib")
        with open(path, "w") as fh:
            fh.write(str(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss))

    def take(self):
        """Sum in KiB of the peaks spooled since the last take; deletes them."""
        total = 0
        for entry in os.listdir(self.spool_dir):
            path = os.path.join(self.spool_dir, entry)
            with open(path) as fh:
                total += int(fh.read())
            os.remove(path)
        return total


def run_grids(workload, seed, out_root, seconds, min_grids, tracer=None):
    """Grid after grid until ``min_grids`` ran and the next would pass ``seconds``."""
    from mmfuse.experiment import ExperimentConfig, run_experiment

    workers = WorkerPeaks(os.path.join(out_root, "rss"))
    out_dir = os.path.join(out_root, "grid")
    cfg = ExperimentConfig.from_dict(workload.config(seed, out=out_dir))
    sizes = train_sizes(cfg)
    if tracer is not None:
        tracer.take()  # drop the spans of train_sizes' own dataset build
    grids = []
    start = time.perf_counter()
    while True:
        shutil.rmtree(out_dir, ignore_errors=True)
        t0 = time.perf_counter()
        result = run_experiment(cfg)
        grid_s = time.perf_counter() - t0
        record = grid_record(workload, out_dir, result, grid_s, sizes)
        record["workers_peak_kib"] = workers.take()
        if tracer is not None:
            record["trace"] = tracer.take()
        grids.append(record)
        typical = statistics.median(g["grid_s"] for g in grids)
        if len(grids) >= min_grids and time.perf_counter() - start + typical > seconds:
            return grids


def blas_threads():
    """Thread count the loaded OpenBLAS reports, or None if it cannot be asked."""
    import ctypes

    import numpy  # noqa: F401  (loads BLAS)

    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment():
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "thread_env": {
            k: os.environ.get(k)
            for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
    }


def peak_rss_mb(grids):
    """Peak RSS of this process plus the sum of one grid's pool workers' peaks.

    The grid whose workers' sum is largest counts. Pages a worker shares
    with this process since the fork count in both.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = max(g["workers_peak_kib"] for g in grids)
    return (own + workers) / 1024.0  # ru_maxrss is in KiB on Linux


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("mode", choices=("setup", "grids"))
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", help="directory for artifacts (grids mode)")
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--min-grids", type=int, default=1)
    ap.add_argument("--traced", type=int, choices=(0, 1), default=0)
    ap.add_argument("--blocks", type=int, default=0, help="repetitions per block, 0 for none")
    args = ap.parse_args(argv)
    workload = WORKLOADS[args.workload]

    if args.mode == "setup":
        payload = setup_probe(workload, args.seed)
    else:
        import mmfuse

        tracer = None
        if args.traced:
            from tracing import Tracer

            tracer = Tracer(os.path.join(args.out, "spool"))
            tracer.install()
        grids = run_grids(
            workload, args.seed, args.out, args.seconds, args.min_grids, tracer
        )
        if tracer is not None:
            tracer.uninstall()
        payload = {
            "grids": grids,
            "peak_rss_mb": peak_rss_mb(grids),
            "environment": environment(),
            "mmfuse_file": mmfuse.__file__,
        }
        if args.blocks:
            from blocks import block_table

            payload["blocks"] = block_table(
                WORKLOADS[BLOCKS_WORKLOAD], args.seed, args.blocks
            )
    print(json.dumps(payload))
    return 0


if __name__ == "__main__":
    sys.exit(main())
