"""Training a joint-individual model with the cosine schedule.

Trains on a small redundant synthetic set and prints the per-epoch log:
the three loss components, the annealed learning rate, and validation
balanced accuracy with early stopping.
"""

import numpy as np

from mmfuse.data import SyntheticSpec, generate_synthetic
from mmfuse.evaluation import stratified_kfold
from mmfuse.experiment import ModelConfig, build_assembly
from mmfuse.training import TrainConfig, eval_bac, train

ds = generate_synthetic(
    SyntheticSpec(
        n_classes=3, per_class=30, image_shape=(3, 16, 16),
        alpha_img=0.9, alpha_meta=0.9, noise=0.1, seed=4,
    )
)
folds = stratified_kfold(ds.labels, 5, seed=0)
# each split is a set of dataset rows; training gathers its batches from them
test_rows, val_rows = folds[0], folds[1]
train_rows = np.sort(np.concatenate([folds[i] for i in range(2, 5)]))
print(f"train/val/test sizes: {len(train_rows)}/{len(val_rows)}/{len(test_rows)}")

model_cfg = ModelConfig(
    structure="jif", fusion="mmfa", report="all",
    image_features=32, metadata_features=16, heads=4,
    channels=(6, 12, 24), metadata_hidden=(24,),
)
assembly = build_assembly(model_cfg, ds, np.random.default_rng(0))
cfg = TrainConfig(epochs=25, patience=8, batch_size=16, seed=0, beta=0.5)
assembly, log = train(assembly, ds, train_rows, val_rows, cfg, report="all")

print(f"{'epoch':>5} {'lr':>9} {'L_I':>7} {'L_M':>7} {'L_IM':>7} {'val_bac':>8}")
for row in log.rows:
    print(f"{row['epoch']:>5} {row['lr']:>9.5f} {row['L_I']:>7.3f} "
          f"{row['L_M']:>7.3f} {row['L_IM']:>7.3f} {row['val_bac']:>8.3f}")
print(f"\nbest epoch {log.best_epoch} (val BAC {log.best_bac:.3f}); "
      f"stopped because: {log.stop_reason}")
print(f"held-out test BAC (decision-fused): {eval_bac(assembly, ds, test_rows, 'all'):.3f}")
print(f"held-out test BAC (fusion branch):  {eval_bac(assembly, ds, test_rows, 'ofb'):.3f}")
