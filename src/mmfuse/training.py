"""SGD training loop with cosine-annealed learning rate and early stopping.

Each epoch t runs over a seeded shuffle of the training set, optionally
augmenting images, at learning rate

    lr(t) = eta_min + 0.5 * (lr0 - eta_min) * (1 + cos(pi * t / T)).

Augmentation works on a whole batch at once. The random parameters are
drawn image by image from the loop's generator, in a fixed order: hflip,
vflip, shift (dy then dx), rotation (kind, then the angle) and scale. Each
transform is a nearest-neighbor pixel map with zero fill, so the five maps
are composed from the last transform back to the first into one source
index and validity mask per output pixel, and the batch is gathered once.

Validation balanced accuracy is evaluated after every epoch; training
keeps the parameters of the best epoch (earliest on ties) and stops after
``patience`` epochs without improvement. Class weights for the loss come
from the training split only.
"""

import csv
import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor, no_graph
from .errors import Config, ConfigError, ContractError, FormatError, NumericError
from .evaluation import balanced_accuracy, confusion
from .layers import Params
from .structures import (
    STRUCTURES,
    class_weights_from_counts,
    decision_fuse,
    reported_scores,
    total_loss,
)


@dataclass(frozen=True)
class TrainConfig(Config):
    epochs: int = 150
    lr0: float = 0.005
    eta_min: float = 0.0
    patience: int = 30
    batch_size: int = 16
    seed: int = 0
    beta: float = 0.5
    augment: bool = True
    augment_prob: float = 0.5

    def validate(self):
        if self.epochs < 1:
            raise ConfigError("epochs must be >= 1")
        if self.patience < 1:
            raise ConfigError("patience must be >= 1")
        if not self.lr0 > 0:
            raise ConfigError("lr0 must be positive")
        if not self.eta_min >= 0:
            # a negative floor makes late-epoch learning rates negative
            raise ConfigError("eta_min must be >= 0")
        if not 0 <= self.beta <= 1:
            raise ConfigError("beta must lie in [0, 1]")
        if not 0 <= self.augment_prob <= 1:
            raise ConfigError("augment_prob must lie in [0, 1]")
        if self.batch_size < 2:
            # train-mode batch norm over one sample outputs zeros
            raise ConfigError("batch_size must be >= 2")
        if self.seed < 0:
            raise ConfigError("train seed must be >= 0")


@dataclass
class TrainLog:
    rows: list = field(default_factory=list)  # dicts: epoch, lr, L_I, L_M, L_IM, val_bac
    best_epoch: int = -1
    best_bac: float = float("-inf")
    stop_reason: str = ""

    def write_csv(self, path):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["epoch", "lr", "L_I", "L_M", "L_IM", "val_bac"])
            for r in self.rows:
                writer.writerow(
                    [
                        r["epoch"],
                        _fmt(r["lr"]),
                        _fmt(r.get("L_I")),
                        _fmt(r.get("L_M")),
                        _fmt(r.get("L_IM")),
                        _fmt(r["val_bac"]),
                    ]
                )


def _fmt(v):
    return "" if v is None else f"{v:.12g}"


def cosine_lr(t, total, lr0, eta_min=0.0):
    """Cosine-annealed learning rate at epoch t of a total-epoch schedule."""
    if total <= 0:
        raise ConfigError("total epoch count must be positive")
    if not 0 <= t <= total:
        raise ConfigError(f"epoch {t} outside [0, {total}]")
    return eta_min + 0.5 * (lr0 - eta_min) * (1.0 + math.cos(math.pi * t / total))


def sgd_step(named_params, lr):
    """Plain SGD update p <- p - lr * grad of every parameter, made once on
    the flat vectors of ``named_params``, a ``layers.Params`` such as a
    built model's ``params()``.

    The whole gradient vector is checked before any parameter moves, so a
    non-finite gradient raises ``NumericError`` naming the first parameter
    that has one, and leaves all parameters unchanged.
    """
    if lr < 0:
        raise ConfigError("learning rate must be non-negative")
    if not isinstance(named_params, Params):
        raise ContractError("sgd_step needs a layers.Params, such as a model's params()")
    grad = named_params.grad
    if not np.isfinite(grad).all():
        first = int(np.flatnonzero(~np.isfinite(grad))[0])
        raise NumericError(
            f"non-finite gradient for parameter {named_params.name_at(first)!r}"
        )
    named_params.data -= lr * grad


# ---------------------------------------------------------------------------
# image augmentation


def _rescale_axis(n, size):
    """Source index and validity along one axis of a nearest-neighbor resize
    to ``n`` (per image) pixels, center-cropped or zero-padded to ``size``."""
    j = np.arange(size) + np.fix((n - size) / 2)[:, None]  # index into the resized axis
    src = np.clip(np.rint((j + 0.5) * size / n[:, None] - 0.5), 0, size - 1)
    return src.astype(np.intp), (j >= 0) & (j < n[:, None])


def augment(images, rng, prob=0.5):
    """Augment a ``(B, C, H, W)`` batch, each transform applying to each
    image independently with the given probability.

    Per image, in this order: horizontal flip, vertical flip, integer shift
    of each axis up to an eighth of its length (zero padded), rotation about
    the center (a quarter turn or an angle within 15 degrees), and rescaling
    by 0.9-1.1 with each axis center-cropped or zero-padded back to its size.
    The parameters are drawn image by image in that order, so the result is
    deterministic given the generator state. The module docstring says how
    the maps compose.
    """
    b, c, h, w = images.shape
    my, mx = (max(int(round(n * 0.125)), 1) for n in (h, w))
    flip = np.zeros((b, 2), dtype=bool)  # horizontal, vertical
    shift = np.zeros((b, 2), dtype=np.intp)  # dy, dx
    degrees = np.zeros(b)
    factor = np.ones(b)
    for i in range(b):
        flip[i, 0] = rng.random() < prob
        flip[i, 1] = rng.random() < prob
        if rng.random() < prob:
            shift[i] = rng.integers(-my, my + 1), rng.integers(-mx, mx + 1)
        if rng.random() < prob:
            if rng.random() < 0.5:
                degrees[i] = 90.0 if rng.random() < 0.5 else -90.0
            else:
                degrees[i] = rng.uniform(-15.0, 15.0)
        if rng.random() < prob:
            factor[i] = rng.uniform(0.9, 1.1)

    def inside(ys, xs):  # a negative index wraps to a large unsigned one
        return (ys.view(np.uintp) < h) & (xs.view(np.uintp) < w)

    # rescale, one axis at a time
    ys, valid_y = _rescale_axis(np.maximum(np.rint(h * factor), 1), h)
    xs, valid_x = _rescale_axis(np.maximum(np.rint(w * factor), 1), w)
    ys, xs = ys[:, :, None], xs[:, None, :]
    valid = valid_y[:, :, None] & valid_x[:, None, :]
    # rotation about the center; a zero angle maps every pixel to itself
    theta = [math.radians(d) for d in degrees]
    cos = np.array([math.cos(t) for t in theta])[:, None, None]
    sin = np.array([math.sin(t) for t in theta])[:, None, None]
    cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
    ys, xs = (
        np.rint(cos * (ys - cy) - sin * (xs - cx) + cy).astype(np.intp),
        np.rint(sin * (ys - cy) + cos * (xs - cx) + cx).astype(np.intp),
    )
    valid &= inside(ys, xs)
    # shift, then the two flips
    ys = ys - shift[:, 0, None, None]
    xs = xs - shift[:, 1, None, None]
    valid &= inside(ys, xs)
    ys = np.where(flip[:, 1, None, None], h - 1 - ys, ys)
    xs = np.where(flip[:, 0, None, None], w - 1 - xs, xs)

    # one gather over the flattened batch, then zero fill
    valid = valid.reshape(b, 1, h * w)
    src = (ys * w + xs).reshape(b, 1, h * w) + (h * w * np.arange(b * c)).reshape(b, c, 1)
    out = np.take(images, src, mode="clip")  # invalid pixels read anything
    return np.where(valid, out, 0.0).reshape(b, c, h, w)


# ---------------------------------------------------------------------------
# prediction helpers


def predict_probs(assembly, dataset, batch_size=256):
    """Eval-mode class probabilities per branch over a whole dataset: the
    softmax of each head's logits, plus their decision-level average
    ("fused") for a three-head structure.

    The forward passes run under ``no_graph``: nothing differentiates them.
    """
    n = len(dataset)
    probs = {}
    for start in range(0, n, batch_size):
        idx = np.arange(start, min(start + batch_size, n))
        images = Tensor(dataset.images[idx])
        meta = Tensor(dataset.meta[idx])
        with no_graph():
            triple = assembly.forward(images, meta, "eval")
            parts = {
                k: ad.softmax(getattr(triple, "logits_" + k)).data
                for k in STRUCTURES[assembly.structure]
            }
        if len(parts) == 3:
            parts["fused"] = decision_fuse(parts["i"], parts["m"], parts["im"])
        for key, val in parts.items():
            probs.setdefault(key, []).append(val)
    return {k: np.concatenate(v, axis=0) for k, v in probs.items()}


def eval_bac(assembly, dataset, report):
    probs = predict_probs(assembly, dataset)
    scores = probs[reported_scores(assembly.structure, report)[-1][1]]
    cm = confusion(dataset.labels, scores.argmax(axis=1), assembly.n_classes)
    return balanced_accuracy(cm)


# ---------------------------------------------------------------------------
# the loop


def _batches(order, batch_size):
    """Split ``order`` into consecutive batches; a trailing single sample
    joins the batch before it, since train-mode batch norm over one sample
    outputs zeros and passes no gradient."""
    bounds = list(range(0, len(order), batch_size)) + [len(order)]
    if len(bounds) > 2 and bounds[-1] - bounds[-2] == 1:
        del bounds[-2]
    return [order[a:b] for a, b in zip(bounds, bounds[1:])]


def train(assembly, train_set, val_set, cfg, report="all"):
    """Fit the assembly; returns (assembly with best-epoch weights, TrainLog)."""
    if len(train_set) < 2 or len(val_set) == 0:
        raise ConfigError(
            "the train split needs at least 2 samples and the validation split 1"
        )
    counts = np.bincount(train_set.labels, minlength=assembly.n_classes)
    weights = class_weights_from_counts(counts)
    rng = np.random.default_rng(cfg.seed)
    named = assembly.params()
    log = TrainLog()
    best_state = None

    for epoch in range(cfg.epochs):
        lr = cosine_lr(epoch, cfg.epochs, cfg.lr0, cfg.eta_min)
        order = rng.permutation(len(train_set))
        sums = {}
        batches = 0
        for idx in _batches(order, cfg.batch_size):
            images = train_set.images[idx]
            if cfg.augment:
                images = augment(images, rng, prob=cfg.augment_prob)
            triple = assembly.forward(
                Tensor(images), Tensor(train_set.meta[idx]), "train"
            )
            loss, comps = total_loss(
                triple, train_set.labels[idx], weights, cfg.beta, assembly.structure
            )
            assembly.zero_grads()
            loss.backward()
            sgd_step(named, lr)
            for key, val in comps.items():
                sums[key] = sums.get(key, 0.0) + val
            batches += 1

        val_bac = eval_bac(assembly, val_set, report)
        row = {"epoch": epoch, "lr": lr, "val_bac": val_bac}
        for key in ("L_I", "L_M", "L_IM"):
            if key in sums:
                row[key] = sums[key] / batches
        log.rows.append(row)

        if val_bac > log.best_bac:
            log.best_bac = val_bac
            log.best_epoch = epoch
            best_state = assembly.state()
        elif epoch - log.best_epoch >= cfg.patience:
            log.stop_reason = f"no val BAC improvement for {cfg.patience} epochs"
            break
    else:
        log.stop_reason = "epoch budget exhausted"

    if best_state is not None:
        assembly.load_state(best_state)
    return assembly, log


# ---------------------------------------------------------------------------
# checkpoints: flat little-endian float64 binary plus a JSON manifest


def save_checkpoint(assembly, bin_path, manifest_path):
    arrays = assembly.state()
    entries = {}
    offset = 0
    with open(bin_path, "wb") as fh:
        for name, arr in arrays.items():
            data = np.ascontiguousarray(arr, dtype="<f8").tobytes()
            entries[name] = {"shape": list(arr.shape), "offset": offset}
            fh.write(data)
            offset += len(data)
    with open(manifest_path, "w") as fh:
        json.dump({"dtype": "<f8", "arrays": entries}, fh, indent=2, sort_keys=True)


def load_checkpoint(assembly, bin_path, manifest_path):
    """Load a checkpoint written by ``save_checkpoint`` into ``assembly``.

    Raises ``FormatError`` if the manifest is not a JSON object with an
    ``arrays`` object whose entries hold a list ``shape`` and an integer
    ``offset``, if the dtype is not ``<f8``, if the arrays, sorted by
    offset, do not tile the blob exactly (the first starts at byte 0, each
    starts where the one before it ends and the last ends with the blob),
    or if the names or shapes do not match the model.
    """
    with open(manifest_path) as fh:
        try:
            manifest = json.load(fh)
        except json.JSONDecodeError as e:
            raise FormatError(f"checkpoint manifest is not valid JSON: {e}") from None
    if not isinstance(manifest, dict) or not isinstance(manifest.get("arrays"), dict):
        raise FormatError("checkpoint manifest needs an 'arrays' object")
    with open(bin_path, "rb") as fh:
        blob = fh.read()
    if manifest.get("dtype") != "<f8":
        raise FormatError(f"checkpoint dtype {manifest.get('dtype')!r} is not '<f8'")
    spans = []  # (offset, shape, name)
    for name, entry in manifest["arrays"].items():
        entry = entry if isinstance(entry, dict) else {}
        shape, start = entry.get("shape"), entry.get("offset")
        if not (
            isinstance(shape, list)
            and all(isinstance(d, int) and d >= 0 for d in shape)
            and isinstance(start, int)
        ):
            raise FormatError(
                f"checkpoint array {name!r} needs a list 'shape' and an integer 'offset'"
            )
        spans.append((start, shape, name))
    end = 0
    for start, shape, name in sorted(spans, key=lambda span: span[0]):
        if start != end:
            raise FormatError(f"checkpoint arrays do not tile the blob at {name!r}", start)
        end += 8 * math.prod(shape)
    if end != len(blob):
        raise FormatError(
            f"checkpoint blob has {len(blob)} bytes, the manifest describes {end}"
        )
    state = {
        name: np.frombuffer(blob, "<f8", math.prod(shape), start).reshape(shape)
        for start, shape, name in spans
    }
    assembly.load_state(state)
    return assembly
