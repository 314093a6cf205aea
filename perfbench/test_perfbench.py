"""Self-tests of the benchmark: span arithmetic, metric names, emitted metrics.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import json
import os
import re
import sys
from dataclasses import replace

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import grid  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from blocks import block_table  # noqa: E402
from workloads import BLOCKS_WORKLOAD, WORKLOADS  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
LAYERS = {
    "experiment", "data", "training", "structures", "encoders", "fusion",
    "autodiff", "blocks", "trace",
}
SUFFIX_UNITS = (("_ms", "ms"), ("_s", "s"), ("_share", "ratio"), ("_ratio", "ratio"))


def test_self_time_arithmetic_on_a_hand_built_tree():
    spans = [
        ["grid", 0.0, 10.0, -1, None],
        ["run", 1.0, 4.0, 0, ("runs", 1)],
        ["op", 2.0, 3.0, 1, None],
        ["run", 5.0, 9.0, 0, ("runs", 1)],
        ["run", 6.0, 7.0, 3, None],  # nested in a span of the same name
    ]
    summary = tracing.summarize(spans)
    assert summary["spans"]["grid"] == [1, 10.0, 3.0]
    # inclusive 3 + 4 (the nested call is inside the second), self 2 + 3 + 1
    assert summary["spans"]["run"] == [3, 7.0, 6.0]
    assert summary["spans"]["op"] == [1, 1.0, 1.0]
    assert summary["counts"] == {"runs": 2}
    total = tracing.merge(tracing.empty_summary(), summary)
    tracing.merge(total, summary)
    assert total["spans"]["run"] == [6, 14.0, 12.0]
    assert total["counts"] == {"runs": 4}


def test_metric_name_grammar():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    metrics = SPEC["end_to_end"] + SPEC["per_layer"]
    names = [m["name"] for m in metrics]
    assert len(names) == len(set(names))
    for m in metrics:
        assert NAME.match(m["name"]), m["name"]
        assert UNIT.match(m["unit"]), m["unit"]
        assert m["better"] in ("lower", "higher")
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
        assert m["name"].split(".")[0] in LAYERS, m["name"]
        expected = next((u for s, u in SUFFIX_UNITS if m["name"].endswith(s)), "count")
        assert m["unit"] == expected, m["name"]
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200


def _quick(name, **changes):
    """A workload at a size that trains in about a second."""
    return replace(WORKLOADS[name], epochs=1, image_side=8, **changes)


@pytest.fixture(scope="module")
def serial_payloads(tmp_path_factory):
    work = _quick("c10-serial")
    out = str(tmp_path_factory.mktemp("serial"))
    grids = grid.run_grids(work, 3, os.path.join(out, "u"), 0, 1)
    untraced = {
        "grids": grids,
        "peak_rss_mb": grid.peak_rss_mb(grids),
        "blocks": block_table(WORKLOADS[BLOCKS_WORKLOAD], 3, reps=1),
    }
    tracer = tracing.Tracer(os.path.join(out, "spool"))
    tracer.install()
    try:
        traced = {"grids": grid.run_grids(work, 3, os.path.join(out, "t"), 0, 1, tracer)}
    finally:
        tracer.uninstall()
    return work, untraced, traced


def test_every_listed_metric_is_emitted(serial_payloads):
    work, untraced, traced = serial_payloads
    e2e = run.end_to_end_metrics([0.5, 0.4], untraced)
    assert set(e2e) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(v > 0 for v in e2e.values())
    assert e2e["setup_s"] == 0.4
    layers = run.traced_metrics(untraced, traced, work.jobs)
    assert set(layers) == {m["name"] for m in SPEC["per_layer"]}


def test_traced_grid_counts_and_results(serial_payloads):
    work, untraced, traced = serial_payloads
    layers = run.traced_metrics(untraced, traced, work.jobs)
    assert layers["experiment.runs"] == 10
    assert traced["grids"][0]["trace"]["spans"]["data.resolve_dataset"][0] == 1
    assert layers["training.epochs"] == 10
    assert layers["autodiff.backward_calls"] == layers["training.batches"] > 0
    assert layers["autodiff.op_calls"] > layers["training.batches"]
    assert 0 <= layers["trace.uncovered_share"] < 0.2
    # tracing leaves the results byte-identical
    assert untraced["grids"][0]["results_sha256"] == traced["grids"][0]["results_sha256"]


def test_uninstall_restores_every_attribute(tmp_path):
    import mmfuse.autodiff as ad
    import mmfuse.layers as layers

    before = (layers.conv2d, ad.conv2d, ad.Tensor.backward, ad.Tensor.sum)
    tracer = tracing.Tracer(str(tmp_path / "spool"))
    tracer.install()
    try:
        assert layers.conv2d is not before[0]
        assert ad.Tensor.backward is not before[2]
    finally:
        tracer.uninstall()
    assert (layers.conv2d, ad.conv2d, ad.Tensor.backward, ad.Tensor.sum) == before


def test_pool_workers_spool_their_spans(tmp_path):
    work = _quick("c10-parallel-aug")
    tracer = tracing.Tracer(str(tmp_path / "spool"))
    tracer.install()
    try:
        grids = grid.run_grids(work, 3, str(tmp_path / "grid"), 0, 1, tracer)
    finally:
        tracer.uninstall()
    spans = grids[0]["trace"]["spans"]
    assert spans["experiment.run"][0] == 10
    assert spans["training.augment"][0] > 0
    assert not os.listdir(tmp_path / "spool")
    # each of the two workers spooled its peak RSS, which is at least the
    # RSS it shared with this process at the fork
    assert grids[0]["workers_peak_kib"] > 2 * 20 * 1024
    assert not os.listdir(tmp_path / "grid" / "rss")


def test_seconds_must_match_run_seconds(capsys):
    assert run.main(["--workload", "c10-serial", "--seconds", str(SPEC["run_seconds"] + 1)]) == 2
    assert "run_seconds" in capsys.readouterr().err


def test_gate_flags_failed_and_missing_runs(serial_payloads):
    work, untraced, _ = serial_payloads
    child = {"grids": untraced["grids"], "mmfuse_file": run.SRC + "/mmfuse/__init__.py"}
    bac = untraced["grids"][0]["bac_mean"]
    children = [child]
    ok = dict(run.gate(replace(work, reference_bac=bac), 3, children, children))
    assert all(ok.values()), ok
    bad_grid = dict(untraced["grids"][0], runs_failed=1, rows_missing=[["Image", "f0-s0"]])
    children = [dict(child, grids=[bad_grid])]
    bad = run.gate(work, 3, children, children)
    assert [passed for _, passed in bad][:2] == [False, False]


def test_gate_checks_reference_seed_tightly_and_other_seeds_against_a_floor():
    def child(bac):
        g = {"runs": 10, "runs_failed": 0, "runs_logged": 10, "rows_missing": [],
             "rows_duplicated": 0, "bac_mean": bac, "results_sha256": "x"}
        return {"grids": [g], "mmfuse_file": run.SRC + "/mmfuse/__init__.py"}

    work = replace(WORKLOADS["c10-serial"], reference_bac=0.9)

    def failing(seed_bac, ref_bac):
        checks = run.gate(work, 5, [child(seed_bac)], [child(ref_bac)])
        return [name.split(" (")[0] for name, passed in checks if not passed]

    assert failing(0.5, 0.9 * 0.985) == []
    assert failing(0.5, 0.9 * 0.97) == [
        f"bac_mean at seed {run.DEFAULT_SEED} within 0.02 of reference 0.9"
    ]
    assert failing(0.3, 0.9) == ["bac_mean at seed 5 at least twice chance, 0.3333"]
