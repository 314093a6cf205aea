"""End-to-end method comparison with the statistical pipeline.

Runs a small fold x seed grid for an attention-fusion model and an
image-only baseline on complementary data, then feeds the per-run BAC
table through the Friedman omnibus and pairwise exact Wilcoxon tests,
Holm-adjusted.

The grids run on every usable CPU. Under the spawn and forkserver start
methods each worker imports this script, so its body sits under the
``__main__`` guard.
"""

import tempfile
from pathlib import Path

from mmfuse.experiment import ExperimentConfig, run_experiment
from mmfuse.stats import FoldResultTable, compare_methods

if __name__ == "__main__":
    root = Path(tempfile.mkdtemp())
    synth = {
        "n_classes": 6, "per_class": 30, "image_shape": [3, 16, 16],
        "alpha_img": 1.0, "alpha_meta": 1.0, "noise": 0.1,
        "mode": "complementary", "seed": 11,
    }
    train = {"epochs": 15, "patience": 8, "batch_size": 16, "augment": False}
    common = {"folds": 5, "seeds": [0, 1], "split_seed": 3, "save_checkpoints": False}

    print("training JIF-MMFA grid (5 folds x 2 seeds)...")
    jif = run_experiment(ExperimentConfig.from_dict({
        "dataset": {"synthetic": synth},
        "model": {"structure": "jif", "fusion": "mmfa", "report": "all", "heads": 8,
                  "image_features": 32, "metadata_features": 16,
                  "channels": [8, 16, 32], "metadata_hidden": [24]},
        "train": train, "out": str(root / "jif"), **common,
    }))
    print("training image-only grid...")
    img = run_experiment(ExperimentConfig.from_dict({
        "dataset": {"synthetic": synth},
        "model": {"structure": "image", "image_features": 32, "channels": [8, 16, 32]},
        "train": train, "out": str(root / "img"), **common,
    }))

    table = FoldResultTable.from_rows(
        [(r["method"], r["run"], r["bac"]) for r in jif.rows + img.rows]
    )
    print("\nmean BAC per method over the 10 paired runs:")
    for m in table.methods:
        col = table.column(m)
        print(f"  {m:<14} {col.mean():.3f} +/- {col.std(ddof=1):.3f}")

    report = compare_methods(table, alpha=0.05)
    print()
    print(report.to_markdown())
