"""Feature encoders for the two modalities.

Tabular metadata is one-hot encoded against a declared schema and pushed
through fully connected blocks; images go through a small convolutional
stack. Both produce per-sample embedding vectors and are differentiable
end to end.
"""

import json
import sys
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .errors import ConfigError, DataError, DimensionError, SchemaError
from .layers import BatchNorm, Conv2d, Linear, LinearBN, Module

MISSING = (None, "")


@dataclass(frozen=True)
class Column:
    """One metadata column: categorical with a vocabulary, or numeric with a range.

    ``policy`` controls out-of-vocabulary categorical values: "strict"
    raises, "lenient" maps them to the unknown slot (missing values always
    go to the unknown slot). Numeric values are rescaled to [0,1] and
    clamped; a missing numeric becomes 0.5.
    """

    name: str
    kind: str  # "categorical" | "numeric"
    vocab: tuple = ()
    vmin: float = 0.0
    vmax: float = 1.0
    policy: str = "lenient"

    def __post_init__(self):
        if self.kind not in ("categorical", "numeric"):
            raise ConfigError(f"column {self.name!r}: unknown kind {self.kind!r}")
        if self.kind == "categorical":
            if not self.vocab:
                raise ConfigError(f"column {self.name!r}: empty vocabulary")
            if len(set(self.vocab)) != len(self.vocab):
                raise ConfigError(f"column {self.name!r}: duplicate vocabulary entries")
        else:
            if not self.vmax > self.vmin:
                raise ConfigError(f"column {self.name!r}: vmax must exceed vmin")
        if self.policy not in ("strict", "lenient"):
            raise ConfigError(f"column {self.name!r}: unknown policy {self.policy!r}")

    @property
    def width(self):
        return len(self.vocab) + 1 if self.kind == "categorical" else 1


@dataclass(frozen=True)
class MetadataSchema:
    columns: tuple = ()
    classes: tuple = ()

    @property
    def encoded_width(self):
        return sum(c.width for c in self.columns)

    def to_json(self):
        cols = []
        for c in self.columns:
            if c.kind == "categorical":
                cols.append(
                    {
                        "name": c.name,
                        "kind": c.kind,
                        "vocab": list(c.vocab),
                        "policy": c.policy,
                    }
                )
            else:
                cols.append(
                    {"name": c.name, "kind": c.kind, "min": c.vmin, "max": c.vmax}
                )
        return json.dumps({"columns": cols, "classes": list(self.classes)}, indent=2)

    @classmethod
    def from_json(cls, text):
        """Parse ``to_json`` output; any malformed part raises ``SchemaError``
        naming the column and key."""
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as e:
            raise SchemaError(f"schema is not valid JSON: {e}") from e
        if not isinstance(raw, dict):
            raise SchemaError("schema must be a JSON object")
        columns, classes = raw.get("columns", []), raw.get("classes", [])
        if not isinstance(columns, list):
            raise SchemaError("schema 'columns' must be a list")
        if not _strings(classes):
            raise SchemaError("schema 'classes' must be a list of strings")
        columns = tuple(_column_from_json(i, c) for i, c in enumerate(columns))
        for what, names in (("class", classes), ("column", [c.name for c in columns])):
            repeated = next((n for i, n in enumerate(names) if n in names[:i]), None)
            if repeated is not None:
                raise SchemaError(f"schema repeats {what} name {repeated!r}")
        return cls(columns=columns, classes=tuple(classes))


def _strings(value):
    return isinstance(value, list) and all(isinstance(v, str) for v in value)


def _column_from_json(i, c):
    if not isinstance(c, dict) or not isinstance(c.get("name"), str):
        raise SchemaError(f"schema column {i} must be an object with a string 'name'")
    where = f"schema column {c['name']!r}"
    kind = c.get("kind", "numeric")
    if kind == "categorical":
        if not _strings(c.get("vocab")):
            raise SchemaError(f"{where}: 'vocab' must be a list of strings")
        fields = {"vocab": tuple(c["vocab"]), "policy": c.get("policy", "lenient")}
    else:
        bounds = c.get("min", 0.0), c.get("max", 1.0)
        if not all(type(b) in (int, float) and abs(b) <= sys.float_info.max for b in bounds):
            raise SchemaError(f"{where}: 'min' and 'max' must be finite numbers")
        fields = {"vmin": float(bounds[0]), "vmax": float(bounds[1])}
    try:
        return Column(c["name"], kind, **fields)
    except ConfigError as e:  # its message names the column
        raise SchemaError(f"schema {e}") from None


def one_hot_encode(row, schema):
    """Encode one raw record (mapping column name -> value) per the schema."""
    out = np.zeros(schema.encoded_width)
    pos = 0
    for col in schema.columns:
        if col.name not in row:
            raise SchemaError(f"record is missing column {col.name!r}")
        val = row[col.name]
        if col.kind == "categorical":
            if val in MISSING:
                out[pos + len(col.vocab)] = 1.0
            elif val in col.vocab:
                out[pos + col.vocab.index(val)] = 1.0
            elif col.policy == "strict":
                raise DataError(
                    f"column {col.name!r}: value {val!r} not in vocabulary"
                )
            else:
                out[pos + len(col.vocab)] = 1.0
            pos += len(col.vocab) + 1
        else:
            if val in MISSING:
                out[pos] = 0.5
            else:
                try:
                    x = float(val)
                except (TypeError, ValueError):
                    x = np.nan
                if not np.isfinite(x):
                    raise DataError(
                        f"column {col.name!r}: value {val!r} is not a finite number"
                    )
                x = (x - col.vmin) / (col.vmax - col.vmin)
                out[pos] = min(max(x, 0.0), 1.0)
            pos += 1
    return out


def encode_rows(rows, schema):
    if not rows:
        return np.zeros((0, schema.encoded_width))
    return np.stack([one_hot_encode(r, schema) for r in rows])


class MetadataEncoder(Module):
    """Fully connected blocks over encoded rows: block i is the bias-free
    linear -> batch norm unit ``block{i}`` (a ``LinearBN``) with a ReLU."""

    def __init__(self, in_width, out_dim=64, hidden=(64,), rng=None):
        rng = np.random.default_rng(0) if rng is None else rng
        widths = [in_width, *hidden, out_dim]
        self.in_width = in_width
        self.out_dim = out_dim
        self.depth = len(widths) - 1
        for i, (a, b) in enumerate(zip(widths[:-1], widths[1:])):
            setattr(self, f"block{i}", LinearBN(a, b, rng))

    def __call__(self, x, mode):
        if x.data.ndim != 2 or x.data.shape[1] != self.in_width:
            raise DimensionError(
                f"metadata batch {x.data.shape} does not match encoder width "
                f"{self.in_width}"
            )
        h = x
        for i in range(self.depth):
            h = getattr(self, f"block{i}")(h, mode, relu=True)
        return h


class ImageEncoder(Module):
    """Three conv/BN/ReLU/max-pool blocks, global average pool, projection.

    Block i is ``conv{i}`` followed by ``bn{i}``; ``proj`` comes last. Each
    block runs as one ``autodiff.conv_block`` graph node on ``conv{i}.w`` and
    ``bn{i}``'s gamma, beta and running statistics; the convolutions carry
    no bias, which the batch norm would cancel. Activations between blocks
    are (B, C, H, W) views of batch-innermost (C, H, W, B) memory.
    """

    def __init__(self, in_shape=(3, 32, 32), channels=(8, 16, 32), out_dim=128, rng=None):
        rng = np.random.default_rng(0) if rng is None else rng
        c, h, w = in_shape
        if len(channels) != 3:
            raise ConfigError(f"image encoder needs 3 channel widths, got {channels}")
        if h % 8 or w % 8:
            raise ConfigError(
                f"image size {h}x{w} must be divisible by 8 (three 2x2 pools)"
            )
        self.in_shape = tuple(in_shape)
        self.out_dim = out_dim
        prev = c
        for i, ch in enumerate(channels):
            setattr(self, f"conv{i}", Conv2d(prev, ch, rng, bias=False))
            setattr(self, f"bn{i}", BatchNorm(ch))
            prev = ch
        self.proj = Linear(prev, out_dim, rng)

    def __call__(self, x, mode):
        if x.data.ndim != 4 or x.data.shape[1:] != self.in_shape:
            raise DimensionError(
                f"image batch {x.data.shape} does not match encoder input "
                f"{self.in_shape}"
            )
        h = x
        for conv, bn in ((self.conv0, self.bn0), (self.conv1, self.bn1),
                         (self.conv2, self.bn2)):
            h = ad.conv_block(h, conv.w, bn.gamma, bn.beta, bn.stats, mode)
        return self.proj(ad.global_avg_pool(h))
