import contextlib
import io
import json
import multiprocessing
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import mmfuse
from mmfuse import autodiff as ad
from mmfuse.cli import main
from mmfuse import experiment as exp, gradcheck
from mmfuse.experiment import ExperimentConfig, config_digest

# pool workers start by fork, so they inherit a test's monkeypatches
_FORKS = multiprocessing.get_start_method() == "fork"


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


def small_dataset(tmp_path, per_class=2):
    """A generated 2-class dataset directory of 8x8 images; 3 per class
    are enough for the 3 folds of ``run_config``."""
    data = tmp_path / "ds"
    assert main([
        "generate", "--out", str(data), "--set", f"per_class={per_class}",
        "--set", "n_classes=2", "--set", "image_shape=[3,8,8]",
    ]) == 0
    return data


def assert_error_naming(capsys, path):
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(path) in err


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

    def test_out_is_a_file_exits_2(self, tmp_path, capsys):
        out = tmp_path / "afile"
        out.write_text("")
        assert main(["generate", "--out", str(out), "--set", "per_class=2"]) == 2
        assert_error_naming(capsys, out)


class TestRun:
    def test_digest_ignores_out_and_jobs(self, tmp_path):
        raw = json.loads(run_config(tmp_path).read_text())
        # the same dataset with its defaults spelled out
        spelled = {**raw["dataset"], "dir": None, "resize": None}
        spelled["synthetic"] = {**spelled["synthetic"], "mode": "redundant"}
        digests = {
            config_digest(ExperimentConfig.from_dict({**raw, **extra}))
            for extra in ({}, {"out": "a"}, {"out": "b", "jobs": 2}, {"dataset": spelled})
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

    def test_runs_gather_rows_instead_of_copying_folds(self, tmp_path, monkeypatch):
        """A grid's runs train and score on rows of the grid's one dataset,
        and write the same files as runs that train and score on copies of
        their folds."""
        import mmfuse.experiment as exp
        from mmfuse.data import Dataset

        cfg = run_config(tmp_path, train={"epochs": 2, "patience": 2, "batch_size": 8})
        real_train, real_predict = exp.train, exp.predict_probs
        seen = []

        def copy_rows(dataset, rows):
            return Dataset(
                images=dataset.images[rows], meta=dataset.meta[rows],
                labels=dataset.labels[rows], schema=dataset.schema,
                ids=[dataset.ids[i] for i in rows],
                records=[dataset.records[i] for i in rows],
            )

        def spied_train(assembly, dataset, *args, **kwargs):
            seen.append(dataset)
            return real_train(assembly, dataset, *args, **kwargs)

        def spied_predict(assembly, dataset, rows):
            seen.append(dataset)
            return real_predict(assembly, dataset, rows)

        def copied_train(assembly, dataset, train_rows, val_rows, train_cfg, report="all"):
            copy = copy_rows(dataset, np.concatenate([train_rows, val_rows]))
            n = len(train_rows)
            return real_train(assembly, copy, np.arange(n), np.arange(n, len(copy)),
                              train_cfg, report)

        def copied_predict(assembly, dataset, rows):
            return real_predict(assembly, copy_rows(dataset, rows), np.arange(len(rows)))

        def run(name):
            out = tmp_path / name
            assert main(["run", "--config", str(cfg), "--out", str(out), "--jobs", "1"]) == 0
            return _files(out)

        monkeypatch.setattr(exp, "train", spied_train)
        monkeypatch.setattr(exp, "predict_probs", spied_predict)
        rows = run("rows")
        assert seen and all(d is seen[0] for d in seen)
        monkeypatch.setattr(exp, "train", copied_train)
        monkeypatch.setattr(exp, "predict_probs", copied_predict)
        assert sum(name.endswith("checkpoint.npy") for name in rows) == 3
        assert run("copies") == rows

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
        assert (run_dir / "confusion_JIF-MMFA-ALL.csv").exists()
        assert (run_dir / "metrics_JIF-MMFA-OFB.json").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert "config_sha256" in manifest and manifest["failures"] == []
        # one checkpoint per run, which numpy alone reads back: the model's
        # state in order, in the grid's float32
        saved = sorted(str(p.relative_to(out)) for p in out.rglob("checkpoint*"))
        assert saved == [f"JIF-MMFA/f{k}-s0/checkpoint.npy" for k in range(3)]
        grid = ExperimentConfig.from_dict(json.loads(cfg.read_text()))
        dataset, _ = exp._grid_data(grid)
        state = exp.build_assembly(grid.model, dataset, np.random.default_rng(0)).state()
        for path in out.rglob("checkpoint.npy"):
            record = np.load(path, allow_pickle=False)
            assert record.shape == () and record.dtype.names == tuple(state)
            for name, arr in state.items():
                assert record.dtype[name] == np.dtype(("<f4", arr.shape))

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
        out = tmp_path / "range"
        args = ["run", "--config", str(cfg), "--out", str(out), "--set", "train.beta=-0.1"]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "beta" in err
        assert not out.exists()

    # the attention scale precedes the softmax, the learning rate anneals to
    # 0 and augmentation draws each transform at probability 0.5, all fixed
    @pytest.mark.parametrize("section, key, value", [
        ("model", "scale_after_softmax", True),
        ("train", "eta_min", 0.001),
        ("train", "augment_prob", 0.5),
    ])
    @pytest.mark.parametrize("given_by", ["file", "set"])
    def test_removed_key_exits_2_naming_it(self, tmp_path, capsys, section, key, value, given_by):
        cfg = json.loads(run_config(tmp_path).read_text())
        dotted, args = f"{section}.{key}", []
        if given_by == "file":
            cfg[section][key] = value
        else:
            args = ["--set", f"{dotted}={json.dumps(value)}"]
        path = tmp_path / "removed.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "removed"
        assert main(["run", "--config", str(path), "--out", str(out), *args]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: unknown config keys: ['{dotted}']")
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
        ('{"columns": [{"kind": "numeric"}]}', "columns.0.name"),
        ('{"columns": [{"name": "age", "kind": "categorical"}]}', "'age': categorical 'vocab'"),
        ('{"columns": 5}', "'columns'"),
        ('{"columns": [{"name": "age", "kind": "numeric", "min": "x"}]}', "columns.0.min"),
        ('{"columns": [{"name": "age", "kind": "ordinal"}]}', "'age': unknown kind"),
        ('{"classes": ["C0", "C1", "C0"]}', "class name 'C0'"),
        ('{"columns": [{"name": "age"}, {"name": "age"}]}', "column name 'age'"),
        ("{}", "'classes'"),
        ('{"classes": []}', "'classes'"),
        ('{"classes": ["C0", "C1"], "columns": [{"name": "age", "note": "x"}]}',
         "columns.0.note"),
    ])
    def test_malformed_schema_exits_2(self, tmp_path, capsys, schema, where):
        data = small_dataset(tmp_path)
        (data / "schema.json").write_text(schema)
        cfg = run_config(tmp_path, dataset={"dir": str(data)})
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: schema") and where in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("structure, code", [("jif", 2), ("image", 0)])
    def test_schema_without_columns_refused_only_where_metadata_is_encoded(
        self, tmp_path, capsys, structure, code
    ):
        data = small_dataset(tmp_path, per_class=3)
        (data / "schema.json").write_text('{"classes": ["C0", "C1"]}')
        cfg = run_config(tmp_path, dataset={"dir": str(data)})
        argv = ["--set", f"model.structure={structure}"]
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o"), *argv]) == code
        err = capsys.readouterr().err
        if code:
            assert err.startswith("error: ") and "no metadata columns" in err
            assert err.count("\n") == 1

    def test_meta_csv_with_byte_order_mark_gives_the_same_results(self, tmp_path):
        data = small_dataset(tmp_path, per_class=3)
        cfg = run_config(tmp_path, dataset={"dir": str(data)})
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "plain")]) == 0
        meta = data / "meta.csv"
        meta.write_bytes(b"\xef\xbb\xbf" + meta.read_bytes())
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "bom")]) == 0
        plain, bom = ((tmp_path / d / "results.csv").read_bytes() for d in ("plain", "bom"))
        assert bom == plain

    def test_meta_csv_without_rows_exits_2(self, tmp_path, capsys):
        data = small_dataset(tmp_path)
        meta = data / "meta.csv"
        meta.write_text(meta.read_text().splitlines()[0] + "\n")
        cfg = run_config(tmp_path, dataset={"dir": str(data)})
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert_error_naming(capsys, meta)

    def test_image_of_another_size_without_resize_exits_2(self, tmp_path, capsys):
        data = small_dataset(tmp_path)
        image = sorted((data / "images").iterdir())[1]
        image.write_bytes(b"P6\n16 8\n255\n" + bytes(16 * 8 * 3))
        cfg = run_config(tmp_path, dataset={"dir": str(data)})
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {image}") and "dataset.resize" in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("age", ["abc", "nan"])
    def test_non_numeric_metadata_cell_exits_2(self, tmp_path, capsys, age):
        data = small_dataset(tmp_path)
        meta = data / "meta.csv"
        header, first, *rest = meta.read_text().splitlines()
        cells = first.split(",")
        cells[header.split(",").index("age")] = age
        meta.write_text("\n".join([header, ",".join(cells), *rest]) + "\n")
        cfg = run_config(tmp_path, dataset={"dir": str(data)})
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"'age': value '{age}'" in err

    def test_repeated_id_exits_2(self, tmp_path, capsys):
        data = small_dataset(tmp_path)
        meta = data / "meta.csv"
        header, first, second, *rest = meta.read_text().splitlines()
        repeated = first.split(",")[0] + "," + second.split(",", 1)[1]
        meta.write_text("\n".join([header, first, repeated, *rest]) + "\n")
        cfg = run_config(tmp_path, dataset={"dir": str(data)})
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "line 3" in err and "repeats line 2" in err

    @pytest.mark.parametrize("name", ["meta.csv", "schema.json"])
    def test_non_utf8_dataset_file_exits_2(self, tmp_path, capsys, name):
        data = small_dataset(tmp_path)
        with open(data / name, "ab") as fh:
            fh.write(b"\xe9")
        cfg = run_config(tmp_path, dataset={"dir": str(data)})
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert_error_naming(capsys, data / name)

    def test_image_that_is_a_directory_exits_2(self, tmp_path, capsys):
        data = small_dataset(tmp_path)
        image = sorted((data / "images").iterdir())[0]
        image.unlink()
        image.mkdir()
        cfg = run_config(tmp_path, dataset={"dir": str(data)})
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert_error_naming(capsys, image)

    def test_out_is_a_file_exits_2(self, tmp_path, capsys):
        out = tmp_path / "afile"
        out.write_text("")
        assert main(["run", "--config", str(run_config(tmp_path)), "--out", str(out)]) == 2
        assert_error_naming(capsys, out)

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

    @pytest.mark.parametrize("kind", ["directory", "latin-1"])
    def test_unreadable_config_exits_2(self, tmp_path, capsys, kind):
        cfg = tmp_path / "cfg.json"
        if kind == "directory":
            cfg.mkdir()
        else:
            cfg.write_bytes('{"seeds": [0], "note": "naïve"}'.encode("latin-1"))
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(cfg) in err
        assert not (tmp_path / "o").exists()

    def test_jobs_flag_reproduces_sequential_results(self, tmp_path, monkeypatch):
        import multiprocessing.heap
        import multiprocessing.synchronize

        # patience < epochs: runs stop at different epochs, so they finish out of order
        cfg = run_config(
            tmp_path, seeds=[0, 1],
            train={"epochs": 8, "patience": 1, "batch_size": 8, "augment": False},
        )

        def run(name, *flags):
            out = tmp_path / name
            assert main(["run", "--config", str(cfg), "--out", str(out), *flags]) == 0
            return _files(out)

        trees = {f"jobs {n}": run(f"jobs{n}", "--jobs", str(n)) for n in (1, 2, 3)}
        trees["default"] = run("default")
        # Python 3.14 makes forkserver the Linux default; spawn, like it,
        # gives workers nothing of the caller's memory
        proc = _python(
            "import multiprocessing, sys\n"
            "multiprocessing.set_start_method('spawn')\n"
            "from mmfuse.cli import main\n"
            "sys.exit(main(sys.argv[1:]))\n",
            "run", "--config", str(cfg), "--out", str(tmp_path / "spawn"), "--jobs", "2",
        )
        assert proc.returncode == 0, proc.stderr
        trees["spawn, jobs 2"] = _files(tmp_path / "spawn")
        # one usable CPU: the default is one job, which starts no process and
        # builds no shared counter or lock
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert ExperimentConfig.from_dict(json.loads(cfg.read_text())).jobs == 1
        for owner, attr in (
            (multiprocessing.process.BaseProcess, "start"),
            (multiprocessing.synchronize.SemLock, "__init__"),
            (multiprocessing.heap.BufferWrapper, "__init__"),
        ):
            monkeypatch.setattr(owner, attr, _no_process_or_shared_memory)
        trees["one CPU"] = run("one_cpu")

        reference = trees.pop("jobs 1")
        assert sum(name.endswith("checkpoint.npy") for name in reference) == 6
        stops = {
            len(blob.splitlines()) for name, blob in reference.items()
            if name.endswith("trainlog.csv")
        }
        assert len(stops) > 1, "every run stopped at the same epoch"
        for name, tree in trees.items():
            assert tree == reference, name

    def test_numeric_failure_marks_run_and_exits_1(self, tmp_path, monkeypatch, capsys):
        import mmfuse.experiment as exp
        from mmfuse.errors import NumericError

        cfg = run_config(tmp_path)
        seed = ExperimentConfig.from_dict(json.loads(cfg.read_text())).train.seed
        failing = exp._derived_seed(seed, 0, 1)  # the train seed of run f1-s0
        orig = exp.train

        def flaky_train(assembly, dataset, train_rows, val_rows, train_cfg, report="all"):
            if train_cfg.seed == failing:
                raise NumericError("injected blow-up")
            return orig(assembly, dataset, train_rows, val_rows, train_cfg, report)

        monkeypatch.setattr(exp, "train", flaky_train)
        out = tmp_path / "flaky"
        # the patch reaches workers only through fork; elsewhere the caller runs all
        jobs = [] if _FORKS else ["--jobs", "1"]
        assert main(["run", "--config", str(cfg), "--out", str(out), *jobs]) == 1
        assert "injected blow-up" in capsys.readouterr().err
        manifest = json.loads((out / "manifest.json").read_text())
        assert [f["run"] for f in manifest["failures"]] == ["f1-s0"]
        # surviving folds still produced rows
        rows = (out / "results.csv").read_text().splitlines()[1:]
        assert len(rows) == 2 * 2  # two variants x two surviving folds

    @pytest.mark.parametrize("where", [
        "run f0-s0",
        pytest.param("worker", marks=pytest.mark.skipif(
            not _FORKS, reason="the patch reaches workers only through fork"
        )),
    ])
    def test_error_stops_every_process_and_propagates(self, tmp_path, monkeypatch, where):
        import mmfuse.experiment as exp

        cfg = run_config(tmp_path, seeds=[0, 1, 2])
        seed = ExperimentConfig.from_dict(json.loads(cfg.read_text())).train.seed
        failing = exp._derived_seed(seed, 0, 0)  # the train seed of run f0-s0
        caller, worker_failed = os.getpid(), tmp_path / "worker_failed"
        orig = exp.train

        def crashing_train(assembly, dataset, train_rows, val_rows, train_cfg, report="all"):
            if where == "worker" and os.getpid() != caller:
                worker_failed.touch()
                raise RuntimeError("injected crash")
            if where == "worker":
                # keep the caller's run in flight until the worker has failed
                deadline = time.monotonic() + 60
                while not worker_failed.exists() and time.monotonic() < deadline:
                    time.sleep(0.01)
            elif train_cfg.seed == failing:
                raise RuntimeError("injected crash")
            return orig(assembly, dataset, train_rows, val_rows, train_cfg, report)

        monkeypatch.setattr(exp, "train", crashing_train)
        out = tmp_path / "crash"
        with pytest.raises(RuntimeError, match="injected crash"):
            main(["run", "--config", str(cfg), "--out", str(out), "--jobs", "2"])
        logged = len(list(out.glob("*/*/trainlog.csv")))
        if where == "worker":
            assert worker_failed.exists()
            assert logged == 1  # the caller's run in flight, and no run after it
        else:
            assert logged < 9

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

    # over 5 folds, 2 classes of 3 samples leave folds 3 and 4 empty, and
    # classes of 5 and 4 samples leave class C1 out of fold 4's test split
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_empty_fold_exits_2_before_any_run_trains(self, tmp_path, monkeypatch, capsys, jobs):
        monkeypatch.setattr(exp, "train", lambda *a, **k: pytest.fail("a run trained"))
        cfg = run_config(tmp_path, folds=5, jobs=jobs)
        out = tmp_path / "empty"
        for per_class, sizes in (("3", "{'C0': 3, 'C1': 3}"), ("[5,4]", "{'C0': 5, 'C1': 4}")):
            assert main([
                "run", "--config", str(cfg), "--out", str(out),
                "--set", f"dataset.synthetic.per_class={per_class}",
            ]) == 2
            assert capsys.readouterr().err == (
                "error: every fold must hold every class, so a grid of 5 folds needs "
                f"2 or more classes of at least 5 samples each; class sizes: {sizes}\n"
            )
            assert not out.exists()


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

    def test_identical_pair_reported_not_aborted(self, tmp_path, capsys):
        path = tmp_path / "res.csv"
        base = np.random.default_rng(2).uniform(0.4, 0.6, size=10)
        rows = [
            (m, f"r{i}", round(b - shift, 6))
            for m, shift in (("A", 0.0), ("B", 0.0), ("C", 0.3))
            for i, b in enumerate(base)
        ]
        self._write_results(path, rows)
        outdir = tmp_path / "rep"
        assert main(["compare", str(path), "--out", str(outdir)]) == 0
        report = json.loads((outdir / "report.json").read_text())
        same = report["pairwise"][0]
        assert same["pair"] == "A - B"
        assert (same["p_value"], same["p_holm"], same["n_effective"]) == (1.0, 1.0, 0)
        assert same["significant"] is False
        assert "| **A - B** | **1** | **1** |" in capsys.readouterr().out

    def test_p_equal_to_alpha_bold_and_not_significant(self, tmp_path, capsys):
        # 5 runs of one sign: the exact p is 2/2^5 = 0.0625, not below alpha
        path = tmp_path / "res.csv"
        rows = [("a", f"r{i}", 0.5 + 0.05 * i) for i in range(5)]
        rows += [("b", f"r{i}", 0.4 + 0.05 * i) for i in range(5)]
        self._write_results(path, rows)
        outdir = tmp_path / "rep"
        assert main(["compare", str(path), "--alpha", "0.0625", "--out", str(outdir)]) == 0
        pair = json.loads((outdir / "report.json").read_text())["pairwise"][0]
        assert pair["p_value"] == pair["p_holm"] == 0.0625
        assert pair["significant"] is False
        assert "| **a - b** | **0.0625** | **0.0625** |" in (outdir / "report.md").read_text()

    def test_help_lists_only_alpha_and_out(self, capsys):
        assert main(["compare", "--help"]) == 0
        options = {w.rstrip(",") for w in capsys.readouterr().out.split() if w.startswith("--")}
        assert options == {"--help", "--alpha", "--out"}

    def test_out_is_a_file_exits_2(self, tmp_path, capsys):
        path = tmp_path / "res.csv"
        self._write_results(path, [(m, f"r{i}", 0.5) for m in "ab" for i in range(5)])
        out = tmp_path / "afile"
        out.write_text("")
        assert main(["compare", str(path), "--out", str(out)]) == 2
        assert_error_naming(capsys, out)

    def test_malformed_csv_exits_2(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("not,a,results\nfile,0.5,x\n")
        assert main(["compare", str(path)]) == 2

    @pytest.mark.parametrize("kind", ["directory", "latin-1"])
    def test_unreadable_csv_exits_2(self, tmp_path, capsys, kind):
        path = tmp_path / "res.csv"
        if kind == "directory":
            path.mkdir()
        else:
            path.write_bytes("method,run,bac\nnaïve,r0,0.5\n".encode("latin-1"))
        assert main(["compare", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(path) in err

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


MODEL_BLOCKS = {
    "model_image", "model_jf_cat", "model_jf_mmfa",
    "model_jif_cat", "model_jif_mmfa",
}


@pytest.fixture(scope="class")
def gradcheck_run():
    """One uncorrupted `gradcheck` run, shared: (exit code, stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(["gradcheck"])
    return code, buf.getvalue()


class TestGradcheckCommand:
    def test_fresh_run_passes(self, gradcheck_run):
        code, out = gradcheck_run
        assert code == 0
        assert "all blocks pass" in out

    def test_reports_every_block_exactly_once(self, gradcheck_run):
        _, out = gradcheck_run
        lines = [l for l in out.splitlines() if "max_rel_err" in l]
        names = [l.split()[0] for l in lines]
        assert len(names) == len(set(names))
        blocks = [*gradcheck._blocks(), *gradcheck._model_blocks()]
        assert set(names) == {name for name, _, _ in blocks}

    # layers binds dense_block by name, so patching ad.dense_block reaches
    # only the blocks that call it through the module
    @pytest.mark.parametrize("op, failing, factor", [
        ("dense_block", {"dense_block", "dense_block_relu"}, 1.01),
        ("conv_block", {"image_encoder", *MODEL_BLOCKS}, 1.01),
        ("gating_attention", {
            "mmfa", "gating_attention", "model_jf_mmfa", "model_jif_mmfa",
        }, 1.01),
        ("cross_entropy_logits", {
            "head_fused", "head_image", "head_meta",
            "total_loss_beta_0", "total_loss_beta_0.5", "total_loss_beta_1",
            *MODEL_BLOCKS,
        }, 1.01),
        # a NaN gradient compares false with every bound
        ("dense_block", {"dense_block", "dense_block_relu"}, np.nan),
    ], ids=["dense_block", "conv_block", "gating_attention", "cross_entropy_logits",
            "dense_block_nan"])
    def test_corrupted_backward_detected(self, monkeypatch, capsys, op, failing, factor):
        orig = getattr(ad, op)

        def broken_op(*args):
            result = orig(*args)
            out = result[0] if isinstance(result, tuple) else result
            if out.requires_grad:
                inner = out._backward

                def bw(g):
                    inner(g * factor)  # deliberately wrong scale

                out._backward = bw
            return result

        monkeypatch.setattr(ad, op, broken_op)
        assert main(["gradcheck"]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert {line.split()[0] for line in lines if line.endswith("FAIL")} == failing


class TestUsage:
    def test_no_command_exits_2(self, capsys):
        assert main([]) == 2

    def test_unknown_command_exits_2(self, capsys):
        assert main(["frobnicate"]) == 2


def test_readme_example_config_parses():
    """README's example experiment config is a valid config: a key the
    package drops or renames fails here until the README follows."""
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    intro = "An experiment config looks like:\n\n```json\n"
    assert intro in readme
    block = readme.split(intro, 1)[1].split("```", 1)[0]
    cfg = ExperimentConfig.from_dict(json.loads(block))
    assert (cfg.model.structure, cfg.train.epochs, cfg.folds) == ("jif", 150, 5)


def _files(root):
    """Relative path -> bytes of every file under ``root``."""
    return {
        str(path.relative_to(root)): path.read_bytes()
        for path in sorted(root.rglob("*")) if path.is_file()
    }


def _no_process_or_shared_memory(*args, **kwargs):
    raise AssertionError("the grid started a process or built shared memory or a lock")


def _python(code, *args, unset=(), timeout=300, flags=(), setenv=None):
    """Run ``code`` in a fresh interpreter, started with the options ``flags``,
    that imports mmfuse from this checkout, without the environment variables
    named in ``unset`` and with those in ``setenv``."""
    src = os.path.dirname(os.path.dirname(mmfuse.__file__))
    env = {k: v for k, v in os.environ.items() if k not in unset}
    env.update(setenv or {})
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, *flags, "-c", code, *args],
        env=env, capture_output=True, text=True, timeout=timeout,
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

    def test_grid_import_loads_only_what_a_grid_runs(self, tmp_path):
        """The grid module loads neither the statistics, the gradient check,
        the CLI nor the pool's modules, and a one-job grid starts no pool."""
        cfg = run_config(tmp_path, jobs=1, out=str(tmp_path / "out"))
        proc = _python(
            "import json, sys\n"
            "import mmfuse.experiment as exp\n"
            "names = ['mmfuse.stats', 'mmfuse.gradcheck', 'mmfuse.cli',\n"
            "         'concurrent.futures', 'multiprocessing']\n"
            "print([n for n in names if n in sys.modules])\n"
            "with open(sys.argv[1], encoding='utf-8') as fh:\n"
            "    exp.run_experiment(exp.ExperimentConfig.from_dict(json.load(fh)))\n"
            "print([n for n in names if n in sys.modules])\n",
            str(cfg),
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == ["[]", "[]"]
        assert (tmp_path / "out" / "results.csv").exists()

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


def test_non_ascii_class_runs_under_an_ascii_locale(tmp_path):
    """A class name outside ASCII reaches every artifact under a locale whose
    encoding is ASCII: each text file is written as UTF-8."""
    data = tmp_path / "ds"
    assert main(["generate", "--out", str(data), "--set", "per_class=6",
                 "--set", "n_classes=2", "--set", "image_shape=[3,8,8]"]) == 0
    for name, old, new in (("schema.json", '"C0"', '"Mélanome"'),
                           ("meta.csv", ",C0,", ",Mélanome,")):
        path = data / name
        text = path.read_text(encoding="utf-8")
        assert old in text
        path.write_text(text.replace(old, new), encoding="utf-8")
    cfg = run_config(tmp_path, dataset={"dir": str(data)}, jobs=1)
    out = tmp_path / "out"
    # the C locale would switch on UTF-8 mode, which -X utf8=0 keeps off
    proc = _python(
        "import sys\nfrom mmfuse.cli import main\nsys.exit(main(sys.argv[1:]))\n",
        "run", "--config", str(cfg), "--out", str(out),
        flags=("-X", "utf8=0"), unset=("PYTHONUTF8", "PYTHONIOENCODING"),
        setenv={"LC_ALL": "C", "PYTHONCOERCECLOCALE": "0"},
    )
    assert proc.returncode == 0, proc.stderr
    confusions = sorted(out.rglob("confusion_*.csv"))
    assert confusions
    for path in confusions:
        assert "Mélanome" in path.read_bytes().decode("utf-8")


# Runs the script named by the first argument as __main__, with the rest as
# its arguments; spawned workers then import that script as __mp_main__.
_RUN_AS_MAIN = (
    "import runpy, sys\nsys.argv = sys.argv[1:]\nrunpy.run_path(sys.argv[0], run_name='__main__')\n"
)


# Run as a script, so that spawned workers, which import it as __mp_main__,
# probe their runs too. Writes each run's OpenBLAS thread counts to a file.
_BLAS_PROBE = """
import glob, json, os, sys, time
import mmfuse.experiment as exp

HERE = os.path.dirname(os.path.abspath(__file__))
_run_single = exp._run_single


def threads():
    return [get() for get, _ in exp._openblas_libs()]


def probed_run(cfg, dataset, folds, seed, fold):
    with open(os.path.join(HERE, f"run-{os.getpid()}-{seed}-{fold}.json"), "w") as fh:
        json.dump(threads(), fh)
    # the caller's first run waits for a worker's, so that a worker runs one
    deadline = time.monotonic() + 60
    while len({os.path.basename(p).split("-")[1] for p in glob.glob(os.path.join(HERE, "run-*"))}) < 2:
        if time.monotonic() > deadline:
            break
        time.sleep(0.01)
    return _run_single(cfg, dataset, folds, seed, fold)


exp._run_single = probed_run

if __name__ == "__main__":
    import multiprocessing

    multiprocessing.set_start_method(sys.argv[1])
    before = threads()
    cfg = exp.ExperimentConfig.from_dict(json.loads(open(sys.argv[2]).read()))
    exp.run_experiment(cfg)
    print(json.dumps({"caller": os.getpid(), "before": before, "after": threads()}))
"""


@pytest.mark.parametrize("method", ["fork", "spawn"])
def test_grid_processes_run_blas_on_one_thread(tmp_path, method):
    if method not in multiprocessing.get_all_start_methods():
        pytest.skip(f"no {method} start method here")
    if "openblas" not in str(np.show_config(mode="dicts")["Build Dependencies"]["blas"]):
        pytest.skip("numpy does not use OpenBLAS here")
    probe = tmp_path / "probe" / "probe.py"
    probe.parent.mkdir()
    probe.write_text(_BLAS_PROBE)
    cfg = run_config(tmp_path, jobs=2)
    # without these variables OpenBLAS starts with one thread per CPU
    proc = _python(
        _RUN_AS_MAIN, str(probe), method, str(cfg),
        unset=("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"),
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    assert report["before"] and report["after"] == report["before"]
    counts = {}
    for path in (tmp_path / "probe").glob("run-*.json"):
        pid = int(path.name.split("-")[1])
        role = "caller" if pid == report["caller"] else "worker"
        counts.setdefault(role, set()).update(json.loads(path.read_text()))
    assert counts == {"caller": {1}, "worker": {1}}


# A grid started outside a __main__ guard: a spawned worker imports the
# script, starts the grid again and dies while it bootstraps.
_UNGUARDED_GRID = """
import json, multiprocessing, sys
from mmfuse.experiment import ExperimentConfig, run_experiment

multiprocessing.set_start_method("spawn", force=True)
run_experiment(ExperimentConfig.from_dict(json.loads(open(sys.argv[1]).read())))
"""


def test_worker_dying_at_start_fails_the_grid(tmp_path):
    if "spawn" not in multiprocessing.get_all_start_methods():
        pytest.skip("no spawn start method here")
    script = tmp_path / "unguarded.py"
    script.write_text(_UNGUARDED_GRID)
    # a dataset of about 300 kB, several times what a pipe buffers
    dataset = json.loads(run_config(tmp_path).read_text())["dataset"]
    dataset["synthetic"].update(per_class=24, image_shape=[3, 16, 16])
    cfg = run_config(tmp_path, dataset=dataset, jobs=2,
                     train={"epochs": 1, "patience": 1, "batch_size": 8, "augment": False})
    proc = _python(_RUN_AS_MAIN, str(script), str(cfg), timeout=120)
    assert proc.returncode != 0
    assert "BrokenProcessPool" in proc.stderr, proc.stderr


def test_openblas_paths_read_maps_lines():
    import mmfuse.experiment as exp

    maps = [
        "7f10-7f20 r-xp 00000000 08:01 42   /home/u/My Projects/venv/libscipy_openblas64_.so\n",
        "7f20-7f30 r-xp 00000000 08:01 43   /opt/lib/libopenblas.so.0 (deleted)\n",
        "7f30-7f40 r-xp 00000000 08:01 44   /srv/openblas-build/lib/libm.so.6\n",
        "7f40-7f50 rw-p 00000000 00:00 0 \n",
    ]
    assert exp._openblas_paths(maps) == [
        "/home/u/My Projects/venv/libscipy_openblas64_.so",
        "/opt/lib/libopenblas.so.0",
    ]


def test_openblas_libs_skip_what_cannot_be_opened(tmp_path, monkeypatch):
    import mmfuse.experiment as exp

    loaded = len(exp._openblas_libs())
    bogus = tmp_path / "My Libs" / "libopenblas.so"
    bogus.parent.mkdir()
    bogus.write_text("not a library")
    paths = exp._openblas_paths
    monkeypatch.setattr(
        exp, "_openblas_paths",
        lambda lines: paths(lines) + [str(bogus), str(tmp_path / "libopenblas_gone.so")],
    )
    assert len(exp._openblas_libs()) == loaded
