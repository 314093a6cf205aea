"""Command-line entry point.

Subcommands:
  generate   write a synthetic dataset directory
  run        train/evaluate a fold x seed grid from a JSON config
  compare    Friedman + pairwise Wilcoxon report over result CSVs
  gradcheck  finite-difference verification of every differentiable block

Exit codes: 0 success, 1 experiment/verification failure, 2 usage or data
errors.
"""

import argparse
import json
import os
import sys

from .data import SyntheticSpec, generate_synthetic, write_dataset
from .errors import (
    ConfigError,
    ContractError,
    DataError,
    DegenerateSampleError,
    MMFuseError,
)
from .experiment import (
    ExperimentConfig,
    _set_path,
    config_digest,
    gradcheck_suite,
    run_experiment,
)
from .stats import FoldResultTable, compare_methods


def _parser():
    parser = argparse.ArgumentParser(
        prog="mmfuse",
        description="Multimodal fusion classification experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("generate", help="write a synthetic dataset directory")
    p_gen.add_argument(
        "--config",
        help="JSON file with a synthetic spec, a dataset section or an experiment config",
    )
    p_gen.add_argument("--out", required=True, help="output dataset directory")
    p_gen.add_argument("--seed", type=int, help="override the spec seed")
    p_gen.add_argument(
        "--set", action="append", default=[], metavar="KEY=VALUE",
        help="override a field of the config file, e.g. --set dataset.synthetic.seed=5",
    )

    p_run = sub.add_parser("run", help="run a fold x seed experiment grid")
    p_run.add_argument("--config", required=True, help="experiment JSON config")
    p_run.add_argument("--out", help="output directory (overrides config)")
    p_run.add_argument("--seed", type=int, help="override the split seed")
    p_run.add_argument("--jobs", type=int, help="parallel workers for the grid")
    p_run.add_argument(
        "--set", action="append", default=[], metavar="KEY=VALUE",
        help="override a config field, e.g. --set train.epochs=20",
    )

    p_cmp = sub.add_parser("compare", help="statistical comparison of methods")
    p_cmp.add_argument("results", nargs="+", help="result CSVs (method,run,bac,...)")
    p_cmp.add_argument("--alpha", type=float, default=0.05)
    p_cmp.add_argument(
        "--mode", choices=("auto", "exact", "normal"), default="auto",
        help="Wilcoxon p-value computation",
    )
    p_cmp.add_argument("--out", help="directory for report.json / report.md")

    p_gc = sub.add_parser("gradcheck", help="finite-difference gradient checks")
    p_gc.add_argument("--step", type=float, default=1e-5)
    p_gc.add_argument("--tol", type=float, default=1e-4)

    return parser


def _load_config(path, settings):
    """The JSON object in the file ``path`` (empty without one) with every
    ``--set KEY=VALUE`` applied; ``ConfigError`` naming the file otherwise."""
    raw = {}
    if path:
        with open(path) as fh:
            try:
                raw = json.load(fh)
            except json.JSONDecodeError as e:
                raise ConfigError(f"{path}: invalid JSON: {e}") from None
        if not isinstance(raw, dict):
            raise ConfigError(f"{path}: expected a JSON object")
    for setting in settings:
        key, sep, value = setting.partition("=")
        if not sep:
            raise ConfigError(f"override {setting!r} is not KEY=VALUE")
        _set_path(raw, key, value)
    return raw


def cmd_generate(args):
    raw = _load_config(args.config, args.set)
    # an experiment config nests the spec as dataset.synthetic
    for section in ("dataset", "synthetic"):
        if isinstance(raw.get(section), dict):
            raw = raw[section]
    if args.seed is not None:
        raw["seed"] = args.seed
    spec = SyntheticSpec.from_dict(raw)
    dataset = generate_synthetic(spec)
    write_dataset(dataset, args.out)
    print(f"wrote {len(dataset)} samples to {args.out}")
    return 0


def cmd_run(args):
    raw = _load_config(args.config, args.set)
    for key, value in (("out", args.out), ("split_seed", args.seed), ("jobs", args.jobs)):
        if value is not None:
            raw[key] = value
    cfg = ExperimentConfig.from_dict(raw)
    if cfg.out is None:
        raise ConfigError("no output directory: set 'out' in the config or --out")
    result = run_experiment(cfg)
    print(f"config {config_digest(cfg)[:12]}: {len(result.rows)} result rows")
    if result.failures:
        for failure in result.failures:
            print(f"FAILED {failure['run']}: {failure['error']}", file=sys.stderr)
        return 1
    return 0


def cmd_compare(args):
    table = FoldResultTable.from_csv(*args.results)
    report = compare_methods(table, alpha=args.alpha, mode=args.mode)
    markdown = report.to_markdown()
    print(markdown, end="")
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        with open(os.path.join(args.out, "report.json"), "w") as fh:
            fh.write(report.to_json())
        with open(os.path.join(args.out, "report.md"), "w") as fh:
            fh.write(markdown)
    return 0


def cmd_gradcheck(args):
    reports = gradcheck_suite(step=args.step, tol=args.tol)
    worst_width = max(len(r.name) for r in reports)
    ok = True
    for r in reports:
        status = "PASS" if r.passed else "FAIL"
        print(f"{r.name:<{worst_width}}  max_rel_err {r.max_rel_error:.3e}  {status}")
        ok = ok and r.passed
    print(f"gradcheck: {'all blocks pass' if ok else 'FAILURES detected'}")
    return 0 if ok else 1


def main(argv=None):
    parser = _parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    handlers = {
        "generate": cmd_generate,
        "run": cmd_run,
        "compare": cmd_compare,
        "gradcheck": cmd_gradcheck,
    }
    try:
        return handlers[args.command](args)
    except (ConfigError, ContractError, DataError, DegenerateSampleError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except FileNotFoundError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except MMFuseError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
