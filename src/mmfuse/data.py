"""Synthetic multimodal datasets and on-disk dataset I/O.

A dataset directory holds ``meta.csv`` (id, diagnostic, one column per
schema entry), ``schema.json``, and ``images/<id>.ppm`` NetPBM rasters, so
generated and real datasets share one loader.

The synthetic generator draws class-conditional samples: every class owns
an image template (a distinct colored geometric pattern) blended with
noise at strength ``alpha_img``, and categorical metadata peaked on
class-specific values at strength ``alpha_meta``. In ``complementary``
mode the image only identifies a coarse group of classes and the metadata
only the member within a group, so neither modality alone determines the
label. Everything is a pure function of the spec: generation uses a
seeded PCG64 stream, making datasets bit-identical across runs and
platforms.
"""

import csv
import os
from dataclasses import dataclass

import numpy as np

from .encoders import Column, MetadataSchema, encode_rows
from .errors import Config, ConfigError, DataError, FormatError, SchemaError

_PALETTE = np.array(
    [
        [0.90, 0.10, 0.10],
        [0.10, 0.55, 0.90],
        [0.15, 0.75, 0.20],
        [0.95, 0.75, 0.10],
        [0.60, 0.20, 0.80],
        [0.95, 0.45, 0.10],
        [0.10, 0.80, 0.75],
        [0.85, 0.25, 0.55],
        [0.35, 0.35, 0.95],
        [0.55, 0.55, 0.10],
    ]
)


@dataclass(frozen=True)
class SyntheticSpec(Config):
    """Knobs of the class-conditional generator."""

    n_classes: int = 6
    per_class: int | tuple[int, ...] = (90, 30, 75, 45, 120, 60)
    image_shape: tuple[int, ...] = (3, 32, 32)
    alpha_img: float = 0.9
    alpha_meta: float = 0.9
    mode: str = "redundant"  # redundant | complementary | image-only | meta-only
    noise: float = 0.1
    seed: int = 0
    super_classes: int | None = None

    def counts(self):
        if isinstance(self.per_class, int):
            return [self.per_class] * self.n_classes
        counts = list(self.per_class)
        if len(counts) != self.n_classes:
            raise ConfigError(
                f"per_class has {len(counts)} entries for {self.n_classes} classes"
            )
        return counts

    def validate(self):
        if self.n_classes < 1:
            raise ConfigError("need at least one class")
        if any(c < 1 for c in self.counts()):
            raise ConfigError("every class needs at least one sample")
        if not (0.0 <= self.alpha_img <= 1.0 and 0.0 <= self.alpha_meta <= 1.0):
            raise ConfigError("signal strengths must lie in [0, 1]")
        if self.mode not in ("redundant", "complementary", "image-only", "meta-only"):
            raise ConfigError(f"unknown complementarity mode {self.mode!r}")
        if len(self.image_shape) != 3 or min(self.image_shape) < 1:
            raise ConfigError(f"image_shape must be 3 sizes >= 1, got {self.image_shape}")
        if self.image_shape[0] not in (1, 3):
            raise ConfigError("image channels must be 1 or 3")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        if self.mode == "complementary":
            complementary_grouping(self.n_classes, self.super_classes)


def complementary_grouping(n_classes, super_classes=None):
    """(group count, members per group) used by the complementary mode."""
    if super_classes is not None:
        g = super_classes
        if g < 2 or n_classes % g != 0 or n_classes // g < 2:
            raise ConfigError(
                f"super_classes={g} must divide {n_classes} with >= 2 members each"
            )
        return g, n_classes // g
    for members in range(2, n_classes):
        if n_classes % members == 0 and n_classes // members >= 2:
            return n_classes // members, members
    raise ConfigError(
        f"complementary mode needs a composite class count >= 4, got {n_classes}"
    )


def class_template(idx, image_shape):
    """Deterministic colored geometric pattern for one class index."""
    c, h, w = image_shape
    bg = _PALETTE[idx % len(_PALETTE)]
    fg = _PALETTE[(idx * 3 + 5) % len(_PALETTE)]
    if np.array_equal(bg, fg):
        fg = _PALETTE[(idx * 3 + 6) % len(_PALETTE)]
    yy, xx = np.mgrid[0:h, 0:w]
    cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
    kind = idx % 4
    if kind == 0:
        mask = (yy - cy) ** 2 + (xx - cx) ** 2 <= (min(h, w) / 4.0) ** 2
    elif kind == 1:
        mask = (np.abs(yy - cy) <= h / 4.0) & (np.abs(xx - cx) <= w / 4.0)
    elif kind == 2:
        mask = (yy // max(h // 8, 1)) % 2 == 0
    else:
        mask = ((yy + xx) // max(h // 8, 1)) % 2 == 0
    rgb = np.where(mask[None, :, :], fg[:, None, None], bg[:, None, None])
    if c == 1:
        return rgb.mean(axis=0, keepdims=True)
    return rgb


def default_schema(n_classes):
    """Schema of the synthetic datasets: 3 class markers plus noise columns."""
    marker_vocab = tuple(f"v{i}" for i in range(n_classes))
    return MetadataSchema(
        columns=(
            Column(name="marker_a", kind="categorical", vocab=marker_vocab),
            Column(name="marker_b", kind="categorical", vocab=marker_vocab),
            Column(name="marker_c", kind="categorical", vocab=marker_vocab),
            Column(
                name="region",
                kind="categorical",
                vocab=("head", "trunk", "arm", "leg"),
            ),
            Column(name="age", kind="numeric", vmin=0.0, vmax=100.0),
            Column(name="size_mm", kind="numeric", vmin=0.0, vmax=30.0),
        ),
        classes=tuple(f"C{i}" for i in range(n_classes)),
    )


@dataclass
class Dataset:
    """Aligned images, encoded metadata, labels, and raw records."""

    images: np.ndarray  # (n, C, H, W) float64 in [0, 1]
    meta: np.ndarray  # (n, encoded width)
    labels: np.ndarray  # (n,) int
    schema: MetadataSchema
    ids: list
    records: list
    tags: list = None

    def __post_init__(self):
        n = len(self.labels)
        if not (len(self.images) == len(self.meta) == len(self.ids) == len(self.records) == n):
            raise DataError("dataset fields have mismatched lengths")
        if n and (self.labels.min() < 0 or self.labels.max() >= self.n_classes):
            raise DataError("labels out of range for the schema class list")

    @property
    def n_classes(self):
        return len(self.schema.classes)

    def __len__(self):
        return len(self.labels)

    def subset(self, indices):
        idx = np.asarray(indices, dtype=np.intp)
        return Dataset(
            images=self.images[idx],
            meta=self.meta[idx],
            labels=self.labels[idx],
            schema=self.schema,
            ids=[self.ids[i] for i in idx],
            records=[self.records[i] for i in idx],
            tags=None if self.tags is None else [self.tags[i] for i in idx],
        )


def generate_synthetic(spec):
    """Draw a Dataset from the class-conditional generative model."""
    rng = np.random.Generator(np.random.PCG64(spec.seed))
    n_cls = spec.n_classes
    schema = default_schema(n_cls)
    counts = spec.counts()
    if spec.mode == "complementary":
        groups, members = complementary_grouping(n_cls, spec.super_classes)
    alpha_img, alpha_meta = spec.alpha_img, spec.alpha_meta
    if spec.mode == "image-only":
        alpha_meta = 0.0
    elif spec.mode == "meta-only":
        alpha_img = 0.0

    templates = {}
    images, records, labels = [], [], []
    for cls in range(n_cls):
        if spec.mode == "complementary":
            img_target = cls // members
            meta_target = cls % members
        else:
            img_target = meta_target = cls
        if img_target not in templates:
            templates[img_target] = class_template(img_target, spec.image_shape)
        tmpl = templates[img_target]
        marker = f"v{meta_target}"
        for _ in range(counts[cls]):
            noise_img = rng.uniform(size=spec.image_shape)
            img = alpha_img * tmpl + (1.0 - alpha_img) * noise_img
            if spec.noise > 0:
                img = img + spec.noise * rng.normal(size=spec.image_shape)
            images.append(np.clip(img, 0.0, 1.0))
            rec = {}
            for col in ("marker_a", "marker_b", "marker_c"):
                if rng.random() < alpha_meta:
                    rec[col] = marker
                else:
                    rec[col] = f"v{rng.integers(n_cls)}"
            rec["region"] = ("head", "trunk", "arm", "leg")[rng.integers(4)]
            rec["age"] = int(rng.integers(0, 101))
            rec["size_mm"] = round(float(rng.uniform(0.0, 30.0)), 1)
            records.append(rec)
            labels.append(cls)
    labels = np.array(labels, dtype=np.intp)
    return Dataset(
        images=np.stack(images),
        meta=encode_rows(records, schema),
        labels=labels,
        schema=schema,
        ids=[f"syn{i:05d}" for i in range(len(labels))],
        records=records,
    )


# ---------------------------------------------------------------------------
# directory layout


def write_dataset(ds, out_dir):
    """Write meta.csv, schema.json, and images/<id>.ppm under out_dir."""
    os.makedirs(os.path.join(out_dir, "images"), exist_ok=True)
    with open(os.path.join(out_dir, "schema.json"), "w") as fh:
        fh.write(ds.schema.to_json())
    colnames = [c.name for c in ds.schema.columns]
    with open(os.path.join(out_dir, "meta.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        header = ["id", "diagnostic", *colnames]
        if ds.tags is not None:
            header.append("split")
        writer.writerow(header)
        for i, rec in enumerate(ds.records):
            row = [ds.ids[i], ds.schema.classes[ds.labels[i]]]
            row += [_cell(rec.get(c)) for c in colnames]
            if ds.tags is not None:
                row.append(ds.tags[i])
            writer.writerow(row)
    for i, img_id in enumerate(ds.ids):
        write_image(os.path.join(out_dir, "images", f"{img_id}.ppm"), ds.images[i])


def _cell(value):
    return "" if value is None else str(value)


def load_metadata_csv(path, schema):
    """Parse a metadata CSV against the schema (given directly or as a path).

    The file must have ``id`` and ``diagnostic`` columns plus every schema
    column; column order does not matter. Returns (records, labels, ids,
    tags) where tags comes from an optional ``split`` column.
    """
    if not isinstance(schema, MetadataSchema):
        with open(schema) as fh:
            schema = MetadataSchema.from_json(fh.read())
    records, labels, ids, tags = [], [], [], []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        fields = reader.fieldnames or []
        for required in ("id", "diagnostic"):
            if required not in fields:
                raise SchemaError(f"{path}: missing column {required!r}")
        for col in schema.columns:
            if col.name not in fields:
                raise SchemaError(f"{path}: missing schema column {col.name!r}")
        for lineno, rec in enumerate(reader, start=2):
            label = rec["diagnostic"]
            if label not in schema.classes:
                raise DataError(
                    f"{path} line {lineno}: unknown label {label!r} "
                    f"(id {rec['id']!r})"
                )
            records.append({c.name: rec[c.name] for c in schema.columns})
            labels.append(schema.classes.index(label))
            ids.append(rec["id"])
            tags.append(rec.get("split"))
    has_tags = any(t not in (None, "") for t in tags)
    return (
        records,
        np.array(labels, dtype=np.intp),
        ids,
        tags if has_tags else None,
    )


def load_dataset(root, size=None):
    """Load a dataset directory written by write_dataset (or shaped like one)."""
    schema_path = os.path.join(root, "schema.json")
    with open(schema_path) as fh:
        schema = MetadataSchema.from_json(fh.read())
    records, labels, ids, tags = load_metadata_csv(
        os.path.join(root, "meta.csv"), schema
    )
    images = np.stack(
        [load_image(os.path.join(root, "images", f"{i}.ppm"), size=size) for i in ids]
    )
    return Dataset(
        images=images,
        meta=encode_rows(records, schema),
        labels=labels,
        schema=schema,
        ids=ids,
        records=records,
        tags=tags,
    )


# ---------------------------------------------------------------------------
# NetPBM (P5/P6) codec and bilinear resize


def _next_token(buf, pos):
    n = len(buf)
    while pos < n:
        ch = buf[pos]
        if ch in b" \t\r\n":
            pos += 1
        elif ch in b"#":
            while pos < n and buf[pos] not in b"\n":
                pos += 1
        else:
            break
    if pos >= n:
        raise FormatError("unexpected end of file in header", offset=pos)
    start = pos
    while pos < n and buf[pos] not in b" \t\r\n":
        pos += 1
    return buf[start:pos], start, pos


def load_image(path, size=None):
    """Decode a binary NetPBM file to a (3, H, W) array in [0, 1].

    Grayscale (P5) rasters are promoted to three identical channels. When
    ``size`` (height, width) is given the image is bilinearly resized.
    """
    with open(path, "rb") as fh:
        buf = fh.read()
    magic, start, pos = _next_token(buf, 0)
    if magic not in (b"P5", b"P6"):
        raise FormatError(f"unsupported magic {magic!r}", offset=start)
    dims = []
    for name in ("width", "height", "maxval"):
        token, start, pos = _next_token(buf, pos)
        try:
            value = int(token)
        except ValueError:
            raise FormatError(f"bad {name} token {token!r}", offset=start) from None
        if value <= 0:
            raise FormatError(f"{name} must be positive, got {value}", offset=start)
        dims.append(value)
    width, height, maxval = dims
    if maxval > 255:
        raise FormatError(f"maxval {maxval} > 255 not supported", offset=start)
    if pos >= len(buf) or buf[pos] not in b" \t\r\n":
        raise FormatError("missing whitespace before raster", offset=pos)
    pos += 1
    channels = 3 if magic == b"P6" else 1
    need = width * height * channels
    raster = buf[pos : pos + need]
    if len(raster) < need:
        raise FormatError(
            f"truncated raster: need {need} bytes, have {len(raster)}",
            offset=pos + len(raster),
        )
    arr = np.frombuffer(raster, dtype=np.uint8).astype(np.float64) / maxval
    if channels == 3:
        img = arr.reshape(height, width, 3).transpose(2, 0, 1)
    else:
        img = np.repeat(arr.reshape(1, height, width), 3, axis=0)
    if size is not None and (height, width) != tuple(size):
        img = bilinear_resize(img, size[0], size[1])
    return img


def write_image(path, img):
    """Write a (C, H, W) float array in [0, 1] as binary P6 with maxval 255."""
    img = np.asarray(img, dtype=np.float64)
    if img.ndim != 3 or img.shape[0] not in (1, 3):
        raise DataError(f"expected (1|3, H, W) image, got {img.shape}")
    if img.shape[0] == 1:
        img = np.repeat(img, 3, axis=0)
    raster = (
        np.clip(np.rint(img * 255.0), 0, 255)
        .astype(np.uint8)
        .transpose(1, 2, 0)
        .tobytes()
    )
    h, w = img.shape[1], img.shape[2]
    with open(path, "wb") as fh:
        fh.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        fh.write(raster)


def bilinear_resize(img, out_h, out_w):
    """Pixel-center bilinear resampling of a (C, H, W) array."""
    c, h, w = img.shape
    if (h, w) == (out_h, out_w):
        return img.copy()
    ys = np.clip((np.arange(out_h) + 0.5) * h / out_h - 0.5, 0.0, h - 1.0)
    xs = np.clip((np.arange(out_w) + 0.5) * w / out_w - 0.5, 0.0, w - 1.0)
    y0 = np.floor(ys).astype(np.intp)
    x0 = np.floor(xs).astype(np.intp)
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    wy = (ys - y0)[None, :, None]
    wx = (xs - x0)[None, None, :]
    top = img[:, y0][:, :, x0] * (1 - wx) + img[:, y0][:, :, x1] * wx
    bot = img[:, y1][:, :, x0] * (1 - wx) + img[:, y1][:, :, x1] * wx
    return top * (1 - wy) + bot * wy
