"""Encoders and the two fusion modules.

Shows one-hot encoding against a schema, the per-modality encoders, and
how the attention fusion preserves the concatenation width while gating
feature coordinates per head.
"""

import numpy as np

from mmfuse.autodiff import Tensor
from mmfuse.encoders import (
    Column,
    ImageEncoder,
    MetadataEncoder,
    MetadataSchema,
    encode_rows,
)
from mmfuse.fusion import ConcatFusion, MMFAFusion

rng = np.random.default_rng(1)

print("== metadata schema and one-hot encoding ==")
schema = MetadataSchema(
    columns=(
        Column(name="region", kind="categorical", vocab=("head", "trunk", "arm")),
        Column(name="age", kind="numeric", vmin=0, vmax=120),
    ),
    classes=("benign", "malignant"),
)
rows = [
    {"region": "trunk", "age": 30},
    {"region": None, "age": None},      # missing -> unknown slot / midpoint
    {"region": "elbow", "age": 200},    # unknown value, clamped numeric
]
encoded = encode_rows(rows, schema)
print(f"declared width {schema.encoded_width}; encoded:")
print(encoded)

print("\n== per-modality encoders ==")
meta_enc = MetadataEncoder(in_width=schema.encoded_width, out_dim=16, rng=rng)
img_enc = ImageEncoder(in_shape=(3, 32, 32), channels=(8, 16, 32), out_dim=32, rng=rng)
f_m = meta_enc(Tensor(encoded), "eval")
f_i = img_enc(Tensor(rng.uniform(size=(3, 3, 32, 32))), "eval")
print(f"metadata features: {f_m.shape}, image features: {f_i.shape}")

print("\n== concatenation vs attention fusion ==")
cat = ConcatFusion(32, 16)(f_i, f_m, "eval")
mmfa = MMFAFusion(32, 16, rng=rng, heads=8)
fused = mmfa(f_i, f_m, "eval")
print(f"concat width {cat.shape[1]}, attention-fused width {fused.shape[1]} "
      f"(always image+meta = {f_i.shape[1]}+{f_m.shape[1]})")
print(f"heads: {mmfa.heads}, per-head width: {mmfa.out_width // mmfa.heads}")
w = mmfa.last_weights
print(f"attention weights {w.shape}; per-head sums all 1: "
      f"{np.allclose(w.sum(axis=-1), 1.0, atol=1e-12)}")

print("\n== the zeroed module is exactly the concatenation baseline ==")
for _, t in mmfa.params():
    t.data[...] = 0.0
fused0 = mmfa(f_i, f_m, "eval")
print("bit-exact equality:", np.array_equal(fused0.data, cat.data))
