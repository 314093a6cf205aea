import json
import os
import subprocess
import sys

import numpy as np
import pytest

import mmfuse
from mmfuse import autodiff as ad
from mmfuse.cli import main
from mmfuse.experiment import ExperimentConfig, config_digest, gradcheck_suite


def run_config(tmp_path, name="cfg.json", **overrides):
    cfg = {
        "dataset": {
            "synthetic": {
                "n_classes": 2,
                "per_class": 18,
                "image_shape": [3, 8, 8],
                "alpha_img": 1.0,
                "alpha_meta": 1.0,
                "noise": 0.05,
                "seed": 5,
            }
        },
        "model": {
            "structure": "jif",
            "fusion": "mmfa",
            "report": "all",
            "image_features": 8,
            "metadata_features": 4,
            "heads": 3,
            "channels": [2, 3, 4],
            "metadata_hidden": [6],
        },
        "train": {"epochs": 2, "patience": 2, "batch_size": 8, "augment": False},
        "folds": 3,
        "seeds": [0],
    }
    cfg.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


def config_shapes(tmp_path):
    """Paths of the three files ``generate --config`` takes, all naming one
    synthetic spec: an experiment config, its dataset section, the bare spec."""
    experiment = json.loads(run_config(tmp_path).read_text())
    contents = {
        "experiment": experiment,
        "dataset": experiment["dataset"],
        "spec": experiment["dataset"]["synthetic"],
    }
    paths = {}
    for name, content in contents.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(content))
    return paths


class TestGenerate:
    def test_default_spec_writes_layout(self, tmp_path, capsys):
        out = tmp_path / "ds"
        code = main([
            "generate", "--out", str(out), "--seed", "1",
            "--set", "per_class=4", "--set", "image_shape=[3,8,8]",
        ])
        assert code == 0
        assert (out / "meta.csv").exists() and (out / "schema.json").exists()
        images = os.listdir(out / "images")
        assert len(images) == 6 * 4  # n_classes * per_class

    def test_same_seed_byte_identical_csv(self, tmp_path):
        for sub in ("a", "b"):
            assert main([
                "generate", "--out", str(tmp_path / sub), "--seed", "2",
                "--set", "per_class=3", "--set", "image_shape=[3,8,8]",
            ]) == 0
        assert (tmp_path / "a/meta.csv").read_bytes() == (tmp_path / "b/meta.csv").read_bytes()

    def test_invalid_spec_exits_2(self, tmp_path, capsys):
        code = main([
            "generate", "--out", str(tmp_path / "x"), "--set", "alpha_img=2.0",
        ])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_full_experiment_config(self, tmp_path):
        out = tmp_path / "ds"
        assert main(["generate", "--config", str(run_config(tmp_path)), "--out", str(out)]) == 0
        assert len(os.listdir(out / "images")) == 2 * 18  # dataset.synthetic of the config

    def test_non_object_config_exits_2(self, tmp_path, capsys):
        for text in ('[1, 2]', '{"dataset": "x"}'):
            cfg = tmp_path / "cfg.json"
            cfg.write_text(text)
            assert main(["generate", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2
            assert "error" in capsys.readouterr().err

    def test_invalid_json_config_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text("{bad")
        assert main(["generate", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "bad.json" in err and "invalid JSON" in err
        assert not (tmp_path / "x").exists()

    def test_dotted_set(self, tmp_path):
        out = tmp_path / "ds"
        assert main([
            "generate", "--config", str(run_config(tmp_path)), "--out", str(out),
            "--set", "dataset.synthetic.per_class=3",
        ]) == 0
        assert len(os.listdir(out / "images")) == 2 * 3

    @pytest.mark.parametrize("config, setting, key", [
        ("experiment", "per_class=3", "'per_class'"),
        ("dataset", "per_class=3", "'per_class'"),
        ("spec", "folds=3", "'folds'"),
    ])
    def test_set_key_the_file_lacks_exits_2(self, tmp_path, capsys, config, setting, key):
        path = config_shapes(tmp_path)[config]
        out = tmp_path / "ds"
        assert main([
            "generate", "--config", str(path), "--out", str(out), "--set", setting,
        ]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: unknown config keys") and key in err
        assert not out.exists()

    def test_seed_flag_overrides_each_file_shape(self, tmp_path):
        shapes = config_shapes(tmp_path)
        metas = []
        for name, path in shapes.items():
            out = tmp_path / f"ds-{name}"
            assert main(["generate", "--config", str(path), "--out", str(out), "--seed", "9"]) == 0
            metas.append((out / "meta.csv").read_bytes())
        ref = tmp_path / "ref"
        assert main([
            "generate", "--config", str(shapes["spec"]), "--out", str(ref), "--set", "seed=9",
        ]) == 0
        assert metas == [(ref / "meta.csv").read_bytes()] * 3

    def test_dir_dataset_exits_2(self, tmp_path, capsys):
        cfg = run_config(tmp_path, dataset={"dir": "somewhere"})
        assert main(["generate", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2
        assert "synthetic" in capsys.readouterr().err


class TestRun:
    def test_digest_ignores_out_and_jobs(self, tmp_path):
        raw = json.loads(run_config(tmp_path).read_text())
        digests = {
            config_digest(ExperimentConfig.from_dict({**raw, **extra}))
            for extra in ({}, {"out": "a"}, {"out": "b", "jobs": 2})
        }
        assert len(digests) == 1

    def test_rows_per_method(self, tmp_path):
        cfg = run_config(tmp_path)
        out = tmp_path / "run"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        lines = (out / "results.csv").read_text().splitlines()
        assert lines[0] == "method,run,bac,acc,auc"
        rows = [l.split(",") for l in lines[1:]]
        by_method = {}
        for r in rows:
            by_method.setdefault(r[0], []).append(r)
        assert set(by_method) == {"JIF-MMFA-OFB", "JIF-MMFA-ALL"}
        assert all(len(v) == 3 for v in by_method.values())  # one row per fold

    def test_determinism_byte_identical(self, tmp_path):
        cfg = run_config(tmp_path)
        for sub in ("r1", "r2"):
            assert main(["run", "--config", str(cfg), "--out", str(tmp_path / sub)]) == 0
        a = (tmp_path / "r1/results.csv").read_bytes()
        b = (tmp_path / "r2/results.csv").read_bytes()
        assert a == b

    def test_image_only_on_meta_only_data_is_chance_level(self, tmp_path):
        cfg = run_config(
            tmp_path,
            dataset={
                "synthetic": {
                    "n_classes": 2, "per_class": 30, "image_shape": [3, 8, 8],
                    "alpha_img": 1.0, "alpha_meta": 1.0, "noise": 0.0,
                    "mode": "meta-only", "seed": 11,
                }
            },
            model={
                "structure": "image", "image_features": 8, "channels": [2, 3, 4],
            },
            folds=5,
            train={"epochs": 3, "patience": 3, "batch_size": 8, "augment": False},
        )
        out = tmp_path / "imgonly"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        rows = (out / "results.csv").read_text().splitlines()[1:]
        bacs = [float(r.split(",")[2]) for r in rows]
        assert abs(np.mean(bacs) - 0.5) < 0.2  # 3 sigma of chance level

    def test_artifacts_written(self, tmp_path):
        cfg = run_config(tmp_path)
        out = tmp_path / "art"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        run_dir = out / "JIF-MMFA" / "f0-s0"
        assert (run_dir / "trainlog.csv").exists()
        assert (run_dir / "checkpoint.bin").exists()
        assert (run_dir / "checkpoint.json").exists()
        assert (run_dir / "confusion_JIF-MMFA-ALL.csv").exists()
        assert (run_dir / "metrics_JIF-MMFA-OFB.json").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert "config_sha256" in manifest and manifest["failures"] == []

    def test_set_overrides(self, tmp_path):
        cfg = run_config(tmp_path)
        out = tmp_path / "ovr"
        assert main([
            "run", "--config", str(cfg), "--out", str(out),
            "--set", "train.epochs=1", "--set", "seeds=[3]",
        ]) == 0
        rows = (out / "results.csv").read_text().splitlines()[1:]
        assert all("-s3" in r.split(",")[1] for r in rows)

    def test_set_below_a_scalar_exits_2(self, tmp_path, capsys):
        cfg = run_config(tmp_path)
        for key in ("folds.x=1", "folds.x.y=1"):
            assert main([
                "run", "--config", str(cfg), "--out", str(tmp_path / "sc"),
                "--set", key,
            ]) == 2
            assert "'folds' is not a section" in capsys.readouterr().err

    def test_set_out_of_range_train_value_exits_2(self, tmp_path, capsys):
        cfg = run_config(tmp_path)
        for key, name in (
            ("train.augment_prob=1.5", "augment_prob"),
            ("train.beta=-0.1", "beta"),
            ("train.eta_min=-0.001", "eta_min"),
        ):
            out = tmp_path / "range"
            assert main(["run", "--config", str(cfg), "--out", str(out), "--set", key]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: ") and name in err
            assert not out.exists()

    @pytest.mark.parametrize("setting, key", [
        ("train.epochs=abc", "epochs"),
        ("folds=x", "folds"),
        ("seeds=3", "seeds"),
        ("model.channels=3", "channels"),
        ("seeds=[1.5]", "seeds"),
        ("model.image_features=-1", "image_features"),
        ("model.metadata_hidden=[-3]", "metadata_hidden"),
        ("model.channels=[0,2,2]", "channels"),
        ("dataset.synthetic.image_shape=[3,8]", "image_shape"),
        ("dataset.synthetic.image_shape=[1,8,8]", "image_shape"),
        ("dataset.synthetic.super_classes=3", "super_classes"),
        ("seeds=[-1]", "seeds"),
        ("seeds=[1,1]", "seeds must be distinct"),
        ("dataset.synthetic.seed=-1", "seed"),
        ("train.lr0=NaN", "lr0"),
        ("train.eta_min=NaN", "eta_min"),
        ("train.augment=1", "augment"),
        ('dataset={"dir":5}', "dir"),
        ('dataset={"dir":"d","resize":3}', "resize"),
        ('dataset={"dir":"d","resize":[8]}', "resize"),
        ('dataset={"dir":"d","resize":[0,8]}', "resize"),
        ("dataset.resize=[8,8]", "resize"),
        ('dataset={"synthetic":{},"dir":"d"}', "exactly one"),
        ("dataset={}", "exactly one"),
        ("dataset.path=d", "dataset.path"),
        ("jobs=0", "jobs"),
        ("jobs=-3", "jobs"),
    ])
    def test_set_bad_value_exits_2(self, tmp_path, capsys, setting, key):
        out = tmp_path / "bad"
        cfg = run_config(tmp_path)
        assert main(["run", "--config", str(cfg), "--out", str(out), "--set", setting]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and key in err
        assert not out.exists()

    @pytest.mark.parametrize("schema, where", [
        ("[]", "object"),
        ('{"columns": [{"kind": "numeric"}]}', "column 0"),
        ('{"columns": [{"name": "age", "kind": "categorical"}]}', "'age': 'vocab'"),
        ('{"columns": 5}', "'columns'"),
        ('{"columns": [{"name": "age", "kind": "numeric", "min": "x"}]}', "'age': 'min'"),
        ('{"columns": [{"name": "age", "kind": "ordinal"}]}', "'age': unknown kind"),
        ('{"classes": ["C0", "C1", "C0"]}', "class name 'C0'"),
        ('{"columns": [{"name": "age"}, {"name": "age"}]}', "column name 'age'"),
    ])
    def test_malformed_schema_exits_2(self, tmp_path, capsys, schema, where):
        data = tmp_path / "ds"
        assert main([
            "generate", "--out", str(data), "--set", "per_class=2",
            "--set", "n_classes=2", "--set", "image_shape=[3,8,8]",
        ]) == 0
        (data / "schema.json").write_text(schema)
        cfg = run_config(tmp_path, dataset={"dir": str(data)})
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: schema") and where in err

    @pytest.mark.parametrize("age", ["abc", "nan"])
    def test_non_numeric_metadata_cell_exits_2(self, tmp_path, capsys, age):
        data = tmp_path / "ds"
        assert main([
            "generate", "--out", str(data), "--set", "per_class=2",
            "--set", "n_classes=2", "--set", "image_shape=[3,8,8]",
        ]) == 0
        meta = data / "meta.csv"
        header, first, *rest = meta.read_text().splitlines()
        cells = first.split(",")
        cells[header.split(",").index("age")] = age
        meta.write_text("\n".join([header, ",".join(cells), *rest]) + "\n")
        cfg = run_config(tmp_path, dataset={"dir": str(data)})
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"'age': value '{age}'" in err

    def test_heads_not_dividing_attention_width_exits_2_before_data(
        self, tmp_path, capsys, monkeypatch
    ):
        # default heads=8 and metadata_features=64: the attention width is 68
        def no_data(dataset_cfg):
            raise AssertionError("the dataset was resolved before the model was checked")

        monkeypatch.setattr("mmfuse.experiment.resolve_dataset", no_data)
        cfg = run_config(tmp_path, model={"image_features": 4, "channels": [2, 3, 4]})
        out = tmp_path / "heads"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "heads=8" in err and "68" in err
        assert not out.exists()

    def test_invalid_json_config_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text("{bad")
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "bad.json" in err and "invalid JSON" in err
        assert not (tmp_path / "o").exists()

    def test_missing_config_exits_2(self, tmp_path):
        assert main(["run", "--config", str(tmp_path / "nope.json")]) == 2

    def test_jobs_flag_reproduces_sequential_results(self, tmp_path):
        cfg = run_config(tmp_path)
        outs = {}
        for jobs in ("1", "2"):
            out = tmp_path / f"jobs{jobs}"
            assert main([
                "run", "--config", str(cfg), "--out", str(out), "--jobs", jobs,
            ]) == 0
            outs[jobs] = (out / "results.csv").read_bytes()
        assert outs["1"] == outs["2"]

    def test_numeric_failure_marks_run_and_exits_1(self, tmp_path, monkeypatch, capsys):
        import mmfuse.experiment as exp
        from mmfuse.errors import NumericError

        orig = exp.train

        def flaky_train(assembly, train_set, val_set, cfg, report="all"):
            if flaky_train.calls == 0:
                flaky_train.calls += 1
                raise NumericError("injected blow-up")
            flaky_train.calls += 1
            return orig(assembly, train_set, val_set, cfg, report)

        flaky_train.calls = 0
        monkeypatch.setattr(exp, "train", flaky_train)
        cfg = run_config(tmp_path)
        out = tmp_path / "flaky"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 1
        assert "injected blow-up" in capsys.readouterr().err
        manifest = json.loads((out / "manifest.json").read_text())
        assert len(manifest["failures"]) == 1
        # surviving folds still produced rows
        rows = (out / "results.csv").read_text().splitlines()[1:]
        assert len(rows) == 2 * 2  # two variants x two surviving folds

    def test_out_flag_is_taken_literally(self, tmp_path, monkeypatch):
        # a JSON-looking --out is a directory name, not a number
        cfg = run_config(tmp_path)
        monkeypatch.chdir(tmp_path)
        assert main(["run", "--config", str(cfg), "--out", "2024", "--seed", "1"]) == 0
        assert (tmp_path / "2024" / "results.csv").exists()
        manifest = json.loads((tmp_path / "2024" / "manifest.json").read_text())
        assert manifest["config"]["split_seed"] == 1

    def test_too_few_folds_rejected(self, tmp_path):
        cfg = run_config(tmp_path, folds=2)
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "f2")]) == 2


class TestCompare:
    def _write_results(self, path, rows):
        path.write_text(
            "method,run,bac,acc,auc\n"
            + "".join(f"{m},{r},{v},{v},{v}\n" for m, r, v in rows)
        )

    def test_identical_methods_omnibus_only(self, tmp_path, capsys):
        path = tmp_path / "res.csv"
        rows = [("a", f"r{i}", 0.5) for i in range(5)] + [
            ("b", f"r{i}", 0.5) for i in range(5)
        ]
        self._write_results(path, rows)
        assert main(["compare", str(path)]) == 0
        out = capsys.readouterr().out
        assert "p = 1" in out and "not performed" in out

    def test_dominated_method_flagged(self, tmp_path, capsys):
        path = tmp_path / "res.csv"
        rng = np.random.default_rng(0)
        base = rng.uniform(0.4, 0.6, size=10)
        rows = [("good", f"r{i}", round(b + 0.2, 6)) for i, b in enumerate(base)]
        rows += [("bad", f"r{i}", round(b, 6)) for i, b in enumerate(base)]
        self._write_results(path, rows)
        outdir = tmp_path / "rep"
        assert main(["compare", str(path), "--alpha", "0.05", "--out", str(outdir)]) == 0
        report = json.loads((outdir / "report.json").read_text())
        pair = report["pairwise"][0]
        assert pair["significant"] is True
        assert pair["p_value"] == 2.0 / 2.0**10
        assert (outdir / "report.md").exists()

    def test_malformed_csv_exits_2(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("not,a,results\nfile,0.5,x\n")
        assert main(["compare", str(path)]) == 2

    def test_ragged_table_exits_2(self, tmp_path):
        path = tmp_path / "ragged.csv"
        self._write_results(
            path, [("a", "r0", 0.5), ("a", "r1", 0.6), ("b", "r0", 0.4)]
        )
        assert main(["compare", str(path)]) == 2

    def test_multiple_csvs_merged(self, tmp_path, capsys):
        p1, p2 = tmp_path / "m1.csv", tmp_path / "m2.csv"
        rng = np.random.default_rng(1)
        base = rng.uniform(0.4, 0.6, size=6)
        self._write_results(p1, [("a", f"r{i}", round(b + 0.1, 6)) for i, b in enumerate(base)])
        self._write_results(p2, [("b", f"r{i}", round(b, 6)) for i, b in enumerate(base)])
        assert main(["compare", str(p1), str(p2)]) == 0
        assert "a - b" in capsys.readouterr().out


class TestGradcheckCommand:
    def test_fresh_run_passes(self, capsys):
        assert main(["gradcheck"]) == 0
        out = capsys.readouterr().out
        assert "all blocks pass" in out

    def test_reports_every_block_exactly_once(self, capsys):
        main(["gradcheck"])
        lines = [
            l for l in capsys.readouterr().out.splitlines() if "max_rel_err" in l
        ]
        names = [l.split()[0] for l in lines]
        assert len(names) == len(set(names))
        expected = {r.name for r in gradcheck_suite(step=1e-2, tol=1e9)}
        assert set(names) == expected

    def test_corrupted_backward_detected(self, monkeypatch, capsys):
        orig = ad.dense_block

        def broken_dense_block(*args):
            out = orig(*args)
            if out.requires_grad:
                inner = out._backward

                def bw(g):
                    inner(g * 1.01)  # deliberately wrong scale

                out._backward = bw
            return out

        monkeypatch.setattr(ad, "dense_block", broken_dense_block)
        assert main(["gradcheck"]) == 1
        assert "FAIL" in capsys.readouterr().out


class TestUsage:
    def test_no_command_exits_2(self, capsys):
        assert main([]) == 2

    def test_unknown_command_exits_2(self, capsys):
        assert main(["frobnicate"]) == 2


def _python(code, *args):
    """Run ``code`` in a fresh interpreter that imports mmfuse from this checkout."""
    src = os.path.dirname(os.path.dirname(mmfuse.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-c", code, *args],
        env=env, capture_output=True, text=True, timeout=300,
    )


# Makes the interpreter behave as if scipy were not installed.
_NO_SCIPY = """
import importlib.abc, sys

class NoScipy(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{name} is blocked")
        return None

sys.meta_path.insert(0, NoScipy())
"""
_CLI_WITHOUT_SCIPY = _NO_SCIPY + "from mmfuse.cli import main\nsys.exit(main(sys.argv[1:]))\n"


class TestNumpyOnlyRuntime:
    def test_import_loads_no_scipy(self):
        proc = _python(
            "import sys, mmfuse, mmfuse.cli, mmfuse.experiment\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_compare_without_scipy(self, tmp_path):
        path = tmp_path / "res.csv"
        base = np.random.default_rng(2).uniform(0.4, 0.6, size=14)
        rows = [("good", i, round(b + 0.2, 6)) for i, b in enumerate(base)]
        rows += [("bad", i, round(b, 6)) for i, b in enumerate(base)]
        path.write_text(
            "method,run,bac\n" + "".join(f"{m},r{i},{v}\n" for m, i, v in rows)
        )
        proc = _python(_CLI_WITHOUT_SCIPY, "compare", str(path))
        assert proc.returncode == 0, proc.stderr
        assert "good - bad" in proc.stdout

    def test_run_without_scipy(self, tmp_path):
        out = tmp_path / "run"
        proc = _python(
            _CLI_WITHOUT_SCIPY, "run", "--config", str(run_config(tmp_path)), "--out", str(out)
        )
        assert proc.returncode == 0, proc.stderr
        assert (out / "results.csv").read_text().startswith("method,run,bac,acc,auc")

    def test_blocker_hides_scipy(self):
        proc = _python(_NO_SCIPY + "import scipy.stats\n")
        assert proc.returncode != 0
        assert "scipy is blocked" in proc.stderr
