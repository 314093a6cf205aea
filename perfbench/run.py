"""Benchmark of mmfuse's fold x seed grid, end to end and layer by layer.

    python3 perfbench/run.py --workload c10-serial [--seed N] [--trace 0|1]
    python3 perfbench/run.py --workload all

Run from the root of a checkout. The measuring time is BENCHMARK.json's
run_seconds. With ``--trace 0`` it runs untraced grids for that long, with
set-up probes (fresh interpreters) before and after them, and reports the
end-to-end metrics. With ``--trace 1`` it runs untraced grids for half the
time plus the isolated block table, then as many grids again with the
tracer installed, and reports the per-layer metrics. Unless ``--seed`` is the recorded seed, one more grid then runs
at the recorded seed for the gate's reference check. Every grid passes the
correctness gate or the run exits 1. The last line of standard output is
one JSON object: correct, attempted and failed (fold x seed runs) and the
metrics named in BENCHMARK.json.

The metric definitions, the workloads and what each metric should move are
described in perfbench/README.md.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

from workloads import CHANCE_BAC, DEFAULT_SEED, REFERENCE_TOLERANCE, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RUNS = os.path.join(ROOT, ".perfbench_runs")
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")

# set-up probes run half before and half after the grids; setup_s is their
# minimum, which a slow spell of the machine during some of them does not move
SETUP_PROBES = 8
BLOCK_REPS = 30
DEADLINE_S = 170.0  # the whole run must end within 180 s
# one BLAS thread per workload process, so no workload runs more threads than nproc
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

AUTODIFF_TIMED_OPS = ("conv2d", "batch_norm", "max_pool2", "linear", "softmax")


class BenchError(Exception):
    """The benchmark could not produce a result."""


def run_child(args, deadline, tag):
    """Run grid.py with ``args`` in its own session; return its JSON payload."""
    tmp = os.path.join(RUNS, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, **THREAD_ENV, TMPDIR=tmp)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "grid.py"), *args],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
        cwd=ROOT,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{tag} passed the {DEADLINE_S:.0f} s deadline")
    if proc.returncode != 0:
        raise BenchError(f"{tag} exited with {proc.returncode}:\n{err[-4000:]}")
    return json.loads(out.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# metrics


def end_to_end_metrics(setup_s, child):
    grids = child["grids"]
    return {
        "setup_s": min(setup_s),
        "grid_s": statistics.median(g["grid_s"] for g in grids),
        "train_samples_per_s": statistics.median(
            g["train_samples"] / g["grid_s"] for g in grids
        ),
        "peak_rss_mb": child["peak_rss_mb"],
        "bac_mean": statistics.median(g["bac_mean"] for g in grids),
    }


def layer_metrics(trace, grid_s, jobs):
    """Per-layer metrics of one traced grid from its span summary."""
    spans, counts = trace["spans"], trace["counts"]

    def incl(name):
        return spans.get(name, (0, 0.0, 0.0))[1]

    def calls(name):
        return spans.get(name, (0, 0.0, 0.0))[0]

    capacity = jobs * grid_s
    covered = (
        incl("data.resolve_dataset")
        + incl("training.train")
        + incl("experiment.predict_probs")
    )
    metrics = {
        "experiment.runs": calls("experiment.run"),
        "experiment.runs_failed": counts.get("experiment.runs_failed", 0),
        "experiment.predict_probs_s": incl("experiment.predict_probs"),
        "experiment.worker_idle_share": 1.0 - incl("experiment.run") / capacity,
        "data.resolve_dataset_s": incl("data.resolve_dataset"),
        "training.train_s": incl("training.train"),
        "training.epochs": counts.get("training.epochs", 0),
        "training.batches": calls("training.sgd_step"),
        "training.sgd_step_s": incl("training.sgd_step"),
        "training.augment_s": incl("training.augment"),
        "training.augment_calls": calls("training.augment"),
        "training.eval_bac_s": incl("training.eval_bac"),
        "structures.forward_train_s": incl("structures.forward_train"),
        "structures.forward_eval_s": incl("structures.forward_eval"),
        "structures.total_loss_s": incl("structures.total_loss"),
        "encoders.image_fwd_s": incl("encoders.image_fwd"),
        "encoders.metadata_fwd_s": incl("encoders.metadata_fwd"),
        "fusion.mmfa_fwd_s": incl("fusion.mmfa_fwd"),
        "autodiff.backward_s": incl("autodiff.backward"),
        "autodiff.backward_calls": calls("autodiff.backward"),
        "autodiff.op_calls": sum(
            row[0]
            for name, row in spans.items()
            if name.startswith("autodiff.") and name.endswith("_fwd")
        ),
        "trace.grid_s": grid_s,
        "trace.uncovered_share": 1.0 - covered / capacity,
    }
    for op in AUTODIFF_TIMED_OPS:
        metrics[f"autodiff.{op}_fwd_s"] = incl(f"autodiff.{op}_fwd")
    return metrics


def traced_metrics(untraced, traced, jobs):
    per_grid = [layer_metrics(g["trace"], g["grid_s"], jobs) for g in traced["grids"]]
    metrics = {
        name: statistics.median(m[name] for m in per_grid) for name in per_grid[0]
    }
    metrics["trace.overhead_ratio"] = (
        statistics.median(g["grid_s"] for g in traced["grids"])
        / statistics.median(g["grid_s"] for g in untraced["grids"])
        - 1.0
    )
    metrics.update(untraced["blocks"])
    return metrics


def span_table(traced):
    """Per-span calls, inclusive and self seconds, mean over the traced grids."""
    n = len(traced["grids"])
    table = {}
    for g in traced["grids"]:
        for name, (calls, incl, self_s) in g["trace"]["spans"].items():
            row = table.setdefault(name, [0.0, 0.0, 0.0])
            row[0] += calls / n
            row[1] += incl / n
            row[2] += self_s / n
    return dict(sorted(table.items(), key=lambda kv: -kv[1][2]))


# ---------------------------------------------------------------------------
# correctness gate


def gate(workload, seed, children, reference):
    """(check, passed) pairs over the run's grids and its reference grids.

    ``children`` ran at ``seed``; ``reference`` ran at DEFAULT_SEED (it is
    ``children`` itself when ``seed`` is DEFAULT_SEED).
    """
    grids = [g for child in children for g in child["grids"]]
    ref_grids = [g for child in reference for g in child["grids"]]
    every = grids if reference is children else grids + ref_grids
    runs = sum(g["runs"] for g in every)
    failed = sum(g["runs_failed"] for g in every)
    ref = workload.reference_bac
    bacs = [g["bac_mean"] for g in grids]
    ref_bacs = [g["bac_mean"] for g in ref_grids]
    floor = 2 * CHANCE_BAC
    shas = {g["results_sha256"] for g in grids}
    return [
        (f"run_fail_ratio is 0 ({failed}/{runs} runs failed)", failed == 0),
        (
            "every (fold, seed, method) row present once",
            all(not g["rows_missing"] and not g["rows_duplicated"] for g in every),
        ),
        (
            "every run wrote its trainlog.csv",
            all(g["runs_logged"] == g["runs"] for g in every),
        ),
        (
            f"bac_mean at seed {DEFAULT_SEED} within {REFERENCE_TOLERANCE:g} of reference "
            f"{ref:g} (got {min(ref_bacs):.4f}..{max(ref_bacs):.4f})",
            all(abs(b - ref) <= REFERENCE_TOLERANCE * ref for b in ref_bacs),
        ),
        (
            f"bac_mean at seed {seed} at least twice chance, {floor:.4f} (got {min(bacs):.4f})",
            all(b >= floor for b in bacs),
        ),
        (f"results.csv identical across grids ({len(shas)} digest(s))", len(shas) == 1),
        (
            "mmfuse imported from this checkout's src/",
            all(c["mmfuse_file"].startswith(SRC + os.sep) for c in children + reference),
        ),
    ]


# ---------------------------------------------------------------------------
# one workload


def run_workload(workload, seed, seconds, trace, spec, deadline):
    out = os.path.join(RUNS, f"{workload.name}-seed{seed}-trace{trace}")
    common = ["--workload", workload.name, "--seed", str(seed)]
    report = {"workload": workload.name, "seed": seed, "trace": trace}

    if trace:
        untraced = run_child(
            ["grids", *common, "--out", os.path.join(out, "untraced"),
             "--seconds", str(seconds / 2), "--min-grids", "2",
             "--blocks", str(BLOCK_REPS)],
            deadline, "untraced grid child",
        )
        traced = run_child(
            ["grids", *common, "--out", os.path.join(out, "traced"),
             "--min-grids", str(len(untraced["grids"])), "--traced", "1"],
            deadline, "traced grid child",
        )
        children = [untraced, traced]
        metrics = traced_metrics(untraced, traced, workload.jobs)
        report["spans"] = span_table(traced)
        listed = spec["per_layer"]
    else:
        def probe():
            return run_child(["setup", *common], deadline, "set-up probe")["setup_s"]

        setup_s = [probe() for _ in range(SETUP_PROBES // 2)]
        timed = run_child(
            ["grids", *common, "--out", os.path.join(out, "timed"),
             "--seconds", str(seconds), "--min-grids", "2"],
            deadline, "grid child",
        )
        setup_s += [probe() for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
        children = [timed]
        metrics = end_to_end_metrics(setup_s, timed)
        report["setup_s"] = setup_s
        listed = spec["end_to_end"]

    if seed == DEFAULT_SEED:
        reference = children
    else:
        reference = [run_child(
            ["grids", "--workload", workload.name, "--seed", str(DEFAULT_SEED),
             "--out", os.path.join(out, "reference")],
            deadline, "reference grid child",
        )]
    checks = gate(workload, seed, children, reference)
    correct = all(ok for _, ok in checks)
    grids = [g for child in children for g in child["grids"]]
    if reference is not children:
        grids += [g for child in reference for g in child["grids"]]
    attempted = sum(g["runs"] for g in grids)
    failed = sum(g["runs_failed"] for g in grids)
    if set(metrics) != {m["name"] for m in listed}:
        raise BenchError(
            f"metrics computed {sorted(metrics)} differ from BENCHMARK.json "
            f"{sorted(m['name'] for m in listed)}"
        )
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in listed
        },
    }
    report.update(
        environment=children[0]["environment"],
        checks=[{"check": c, "passed": ok} for c, ok in checks],
        results_sha256=grids[0]["results_sha256"],
        grids=[{k: v for k, v in g.items() if k != "trace"} for g in grids],
        result=result,
    )
    os.makedirs(RUNS, exist_ok=True)
    with open(out + ".json", "w") as fh:
        json.dump(report, fh, indent=2)

    print_report(workload, report)
    print(json.dumps(result))
    return correct


def print_report(workload, report):
    env, trace = report["environment"], report["trace"]
    attempted, failed = report["result"]["attempted"], report["result"]["failed"]
    print(
        f"== {workload.name} seed {report['seed']} trace {trace}: "
        f"{len(report['grids'])} grids, jobs={workload.jobs}"
    )
    print(
        f"   nproc {env['nproc']}, Python {env['python']}, numpy {env['numpy']}, "
        f"scipy {env['scipy']}, BLAS {env['blas']} ({env['blas_threads']} thread(s))"
    )
    for name, m in report["result"]["metrics"].items():
        print(f"   {name:34s} {m['value']:14.6g} {m['unit']}")
    print(f"   {'run_fail_ratio':34s} {failed / attempted:14.6g} ratio ({failed}/{attempted} runs)")
    print(f"   results.csv sha256 {report['results_sha256']}")
    if trace:
        m = {k: v["value"] for k, v in report["result"]["metrics"].items()}
        print(
            f"   top-level spans leave {m['trace.uncovered_share']:.2%} of jobs x traced "
            f"grid_s uncovered; tracing overhead {m['trace.overhead_ratio']:+.2%}"
        )
        print("   spans (mean per traced grid): calls, inclusive s, self s")
        for name, (calls, incl, self_s) in report["spans"].items():
            print(f"     {name:32s} {calls:10.0f} {incl:10.4f} {self_s:10.4f}")
    for check in report["checks"]:
        print(f"   [{'ok' if check['passed'] else 'FAIL'}] {check['check']}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument(
        "--seed", type=int, default=DEFAULT_SEED,
        help="synthetic-data and split seed (default: the recorded seed)",
    )
    ap.add_argument(
        "--seconds", type=float,
        help="measuring time; if given, it must equal BENCHMARK.json's run_seconds",
    )
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not os.path.isfile(os.path.join(SRC, "mmfuse", "__init__.py")):
        print(f"perfbench: no mmfuse sources under {SRC}", file=sys.stderr)
        return 2
    if not os.path.isfile(SPEC_PATH):
        print(f"perfbench: {SPEC_PATH} is missing", file=sys.stderr)
        return 2
    with open(SPEC_PATH) as fh:
        spec = json.load(fh)
    # the run length is fixed in BENCHMARK.json, so runs being compared match
    seconds = spec["run_seconds"]
    if args.seconds is not None and args.seconds != seconds:
        print(
            f"perfbench: --seconds {args.seconds:g} differs from run_seconds {seconds}",
            file=sys.stderr,
        )
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    nproc = len(os.sched_getaffinity(0))
    for name in names:
        if WORKLOADS[name].jobs > nproc:
            print(
                f"perfbench: {name} needs jobs={WORKLOADS[name].jobs} > nproc={nproc}",
                file=sys.stderr,
            )
            return 2

    ok = True
    for name in names:
        if len(names) > 1:
            deadline = time.monotonic() + DEADLINE_S
        try:
            ok &= run_workload(WORKLOADS[name], args.seed, seconds, args.trace, spec, deadline)
        except BenchError as e:
            print(f"perfbench: {name}: {e}", file=sys.stderr)
            return 1
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
