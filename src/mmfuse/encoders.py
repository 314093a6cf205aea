"""Feature encoders for the two modalities.

Tabular metadata is one-hot encoded against a declared schema and pushed
through fully connected blocks; images go through a small convolutional
stack. Both produce per-sample embedding vectors and are differentiable
end to end.
"""

import json
import sys
from dataclasses import asdict, dataclass

import numpy as np

from . import autodiff as ad
from .errors import Config, ConfigError, DataError, DimensionError, SchemaError
from .layers import BatchNorm, Conv2d, Linear, LinearBN, Module

MISSING = (None, "")


@dataclass(frozen=True)
class Column(Config):
    """One metadata column: categorical with a vocabulary, or numeric with a range.

    ``policy`` controls out-of-vocabulary categorical values: "strict"
    raises, "lenient" maps them to the unknown slot (missing values always
    go to the unknown slot). Numeric values are rescaled from [min, max] to
    [0,1] and clamped; a missing numeric becomes 0.5.
    """

    name: str
    kind: str = "numeric"  # "categorical" | "numeric"
    vocab: tuple[str, ...] = ()
    min: float = 0.0
    max: float = 1.0
    policy: str = "lenient"

    def validate(self):
        where = f"column {self.name!r}"
        if self.kind not in ("categorical", "numeric"):
            raise ConfigError(f"{where}: unknown kind {self.kind!r}")
        if self.policy not in ("strict", "lenient"):
            raise ConfigError(f"{where}: unknown policy {self.policy!r}")
        if len(set(self.vocab)) != len(self.vocab):
            raise ConfigError(f"{where}: duplicate vocabulary entries")
        # not math.isfinite, which overflows on an int such as 10**400
        if not all(abs(b) <= sys.float_info.max for b in (self.min, self.max)):
            raise ConfigError(f"{where}: 'min' and 'max' must be finite numbers")
        if self.kind == "categorical" and not self.vocab:
            raise ConfigError(f"{where}: categorical 'vocab' is empty")
        if self.kind == "numeric" and not self.max > self.min:
            raise ConfigError(f"{where}: 'max' must exceed 'min'")

    @property
    def width(self):
        return len(self.vocab) + 1 if self.kind == "categorical" else 1


@dataclass(frozen=True)
class MetadataSchema(Config):
    """A dataset's ``schema.json``: its metadata columns and class names."""

    columns: tuple[Column, ...] = ()
    classes: tuple[str, ...] = ()

    def validate(self):
        for what, names in (("class", self.classes), ("column", [c.name for c in self.columns])):
            repeated = next((n for i, n in enumerate(names) if n in names[:i]), None)
            if repeated is not None:
                raise ConfigError(f"repeats {what} name {repeated!r}")
        if not self.classes:
            raise ConfigError("no class is declared in 'classes'")

    @property
    def encoded_width(self):
        return sum(c.width for c in self.columns)

    def to_json(self):
        return json.dumps(asdict(self), indent=2)

    @classmethod
    def from_json(cls, text):
        """Parse ``to_json`` output, in which a left-out key takes its default;
        a malformed schema raises ``SchemaError`` naming the dotted key."""
        try:
            return cls.from_dict(json.loads(text))
        except (json.JSONDecodeError, ConfigError) as e:
            raise SchemaError(f"schema: {e}") from None


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
                x = (x - col.min) / (col.max - col.min)
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
        if in_width < 1:
            raise ConfigError("the schema has no metadata columns, which this structure encodes")
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
