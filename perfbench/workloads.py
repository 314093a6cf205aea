"""The benchmark's workloads: fold x seed grids of the criterion-10 experiment.

Every workload trains on the criterion-10 synthetic dataset (6 classes x 60
samples, complementary mode, alpha 1, noise 0.1) over 5 folds x 2 seeds,
the same work ``mmfuse run`` does for that config. Two choices keep a grid
short and its work fixed:

* ``patience == epochs``, so early stopping never fires and the work per
  run does not depend on float rounding;
* ``lr0 = 0.02`` instead of the default 0.005, so a few epochs reach the
  BAC the criterion-10 grid reaches in 30. The learning rate changes no
  array shape and no op count, so the work per epoch is the same.

This module imports nothing from mmfuse, so the set-up probe can time the
package import on its own.
"""

from dataclasses import dataclass

# The criterion-10 synthetic-data seed. A workload seed sets both the
# synthetic-data seed and the split seed; the runs (model) seeds stay 0, 1.
DEFAULT_SEED = 2024
FOLDS = 5
RUN_SEEDS = (0, 1)

SYNTHETIC = {
    "n_classes": 6,
    "per_class": 60,
    "alpha_img": 1.0,
    "alpha_meta": 1.0,
    "noise": 0.1,
    "mode": "complementary",
}
# Balanced accuracy of a model that learned nothing. The gate requires at
# least twice this at any seed.
CHANCE_BAC = 1.0 / SYNTHETIC["n_classes"]

# At DEFAULT_SEED a grid is deterministic, so its bac_mean may move from
# the reference only when a change alters float rounding. An im2col conv
# forward plus reordered conv backward sums moved it by 0.7% at most (on
# tiny-serial); the gate allows 2%, relative.
REFERENCE_TOLERANCE = 0.02

JIF_MMFA = {
    "structure": "jif",
    "fusion": "mmfa",
    "report": "all",
    "heads": 8,
    "image_features": 64,
    "metadata_features": 32,
    "channels": [8, 16, 32],
    "metadata_hidden": [32],
}
IMAGE_ONLY = {"structure": "image", "image_features": 64, "channels": [8, 16, 32]}


@dataclass(frozen=True)
class Workload:
    name: str
    model: dict
    image_side: int
    batch_size: int
    epochs: int
    augment: bool
    jobs: int
    methods: tuple  # every method row each (fold, seed) run must produce
    reported: str  # the method whose mean BAC is bac_mean
    reference_bac: float  # bac_mean recorded at DEFAULT_SEED

    def config(self, seed=DEFAULT_SEED, out=None):
        """Raw ExperimentConfig dict of one grid for a workload seed."""
        return {
            "dataset": {
                "synthetic": dict(
                    SYNTHETIC,
                    image_shape=[3, self.image_side, self.image_side],
                    seed=seed,
                )
            },
            "model": dict(self.model),
            "train": {
                "epochs": self.epochs,
                "patience": self.epochs,
                "lr0": 0.02,
                "batch_size": self.batch_size,
                "augment": self.augment,
            },
            "folds": FOLDS,
            "seeds": list(RUN_SEEDS),
            "split_seed": seed,
            "save_checkpoints": False,
            "jobs": self.jobs,
            "out": out,
        }

    def expected_rows(self):
        """(method, run id) of every row a complete grid reports."""
        return {
            (method, f"f{fold}-s{seed}")
            for method in self.methods
            for seed in RUN_SEEDS
            for fold in range(FOLDS)
        }


JIF_METHODS = ("JIF-MMFA-OFB", "JIF-MMFA-ALL")

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="c10-serial",
            model=JIF_MMFA,
            image_side=16,
            batch_size=16,
            epochs=3,
            augment=False,
            jobs=1,
            methods=JIF_METHODS,
            reported="JIF-MMFA-ALL",
            reference_bac=0.9625,
        ),
        Workload(
            name="tiny-serial",
            model=JIF_MMFA,
            image_side=8,
            batch_size=4,
            epochs=2,
            augment=False,
            jobs=1,
            methods=JIF_METHODS,
            reported="JIF-MMFA-ALL",
            reference_bac=0.9875,
        ),
        Workload(
            name="c10-parallel-aug",
            model=IMAGE_ONLY,
            image_side=16,
            batch_size=16,
            epochs=5,
            augment=True,
            jobs=2,
            methods=("Image",),
            reported="Image",
            reference_bac=0.5083,
        ),
    )
}

# The isolated block table always runs at the shapes this workload feeds.
BLOCKS_WORKLOAD = "c10-serial"
