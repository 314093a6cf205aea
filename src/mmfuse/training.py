"""SGD training loop with cosine-annealed learning rate and early stopping.

Each epoch t runs over a seeded shuffle of the training set, optionally
augmenting images, at learning rate

    lr(t) = eta_min + 0.5 * (lr0 - eta_min) * (1 + cos(pi * t / T)).

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

from .autodiff import Tensor, no_graph
from .errors import ConfigError, FormatError, NumericError, check_known_keys
from .evaluation import balanced_accuracy, confusion
from .structures import class_weights_from_counts, decision_fuse, total_loss


@dataclass(frozen=True)
class TrainConfig:
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
        if self.lr0 <= 0:
            raise ConfigError("lr0 must be positive")
        if self.batch_size < 2:
            # train-mode batch norm over one sample outputs zeros
            raise ConfigError("batch_size must be >= 2")

    @classmethod
    def from_dict(cls, d):
        check_known_keys(cls, d, "train config")
        return cls(**d)


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
    """Plain SGD update p <- p - lr * grad for every parameter with a gradient.

    Every gradient is checked before any parameter moves, so a non-finite
    gradient raises ``NumericError`` and leaves all parameters unchanged.
    """
    if lr < 0:
        raise ConfigError("learning rate must be non-negative")
    live = [(name, p) for name, p in named_params if p.grad is not None]
    for name, p in live:
        if not np.isfinite(p.grad).all():
            raise NumericError(f"non-finite gradient for parameter {name!r}")
    for _, p in live:
        p.data -= lr * p.grad


# ---------------------------------------------------------------------------
# image augmentation


def hflip(img):
    return img[:, :, ::-1]


def vflip(img):
    return img[:, ::-1, :]


def shift_image(img, dy, dx):
    """Integer shift with zero padding."""
    out = np.zeros_like(img)
    h, w = img.shape[1], img.shape[2]
    ys = slice(max(dy, 0), min(h + dy, h))
    xs = slice(max(dx, 0), min(w + dx, w))
    ys_src = slice(max(-dy, 0), min(h - dy, h))
    xs_src = slice(max(-dx, 0), min(w - dx, w))
    out[:, ys, xs] = img[:, ys_src, xs_src]
    return out


def rotate_image(img, degrees):
    """Rotation about the center with nearest-neighbor sampling, zero fill."""
    h, w = img.shape[1], img.shape[2]
    theta = math.radians(degrees)
    cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
    yy, xx = np.mgrid[0:h, 0:w]
    ys = math.cos(theta) * (yy - cy) - math.sin(theta) * (xx - cx) + cy
    xs = math.sin(theta) * (yy - cy) + math.cos(theta) * (xx - cx) + cx
    yi = np.rint(ys).astype(np.intp)
    xi = np.rint(xs).astype(np.intp)
    valid = (yi >= 0) & (yi < h) & (xi >= 0) & (xi < w)
    out = np.zeros_like(img)
    out[:, valid] = img[:, yi[valid], xi[valid]]
    return out


def scale_image(img, factor):
    """Nearest-neighbor rescale, then center-crop or zero-pad to the input size."""
    h, w = img.shape[1], img.shape[2]
    nh, nw = max(int(round(h * factor)), 1), max(int(round(w * factor)), 1)
    yi = np.clip(((np.arange(nh) + 0.5) * h / nh - 0.5).round(), 0, h - 1).astype(np.intp)
    xi = np.clip(((np.arange(nw) + 0.5) * w / nw - 0.5).round(), 0, w - 1).astype(np.intp)
    resized = img[:, yi][:, :, xi]
    out = np.zeros_like(img)
    if nh >= h:
        top = (nh - h) // 2
        left = (nw - w) // 2
        out[:] = resized[:, top : top + h, left : left + w]
    else:
        top = (h - nh) // 2
        left = (w - nw) // 2
        out[:, top : top + nh, left : left + nw] = resized
    return out


def augment(img, rng, prob=0.5, max_shift=0.125, scale_range=(0.9, 1.1),
            small_angle=15.0):
    """Apply each transform independently with the given probability.

    Transforms: horizontal flip, vertical flip, integer shift up to
    ``max_shift`` of the side (zero padded), rotation (a quarter turn or a
    small nearest-neighbor angle), and rescaling with center crop/pad.
    Deterministic given the generator state.
    """
    out = img
    if rng.random() < prob:
        out = hflip(out)
    if rng.random() < prob:
        out = vflip(out)
    if rng.random() < prob:
        m = max(int(round(img.shape[1] * max_shift)), 1)
        out = shift_image(out, int(rng.integers(-m, m + 1)), int(rng.integers(-m, m + 1)))
    if rng.random() < prob:
        if rng.random() < 0.5:
            out = rotate_image(out, 90.0 if rng.random() < 0.5 else -90.0)
        else:
            out = rotate_image(out, float(rng.uniform(-small_angle, small_angle)))
    if rng.random() < prob:
        out = scale_image(out, float(rng.uniform(*scale_range)))
    return np.ascontiguousarray(out)


# ---------------------------------------------------------------------------
# prediction helpers


def predict_probs(assembly, dataset, batch_size=256):
    """Eval-mode class probabilities per branch over a whole dataset.

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
        parts = {}
        if triple.p_im is not None:
            parts["im"] = triple.p_im.data
        if triple.p_i is not None:
            parts["i"] = triple.p_i.data
        if triple.p_m is not None:
            parts["m"] = triple.p_m.data
        if triple.p_im is not None and triple.p_i is not None and triple.p_m is not None:
            parts["fused"] = decision_fuse(triple)
        for key, val in parts.items():
            probs.setdefault(key, []).append(val)
    return {k: np.concatenate(v, axis=0) for k, v in probs.items()}


def scores_for_report(probs, structure, report):
    """Pick the score matrix a structure reports under the given mode."""
    if structure == "image":
        return probs["i"]
    if structure == "jf" or report == "ofb":
        return probs["im"]
    return probs["fused"]


def eval_bac(assembly, dataset, report, batch_size=256):
    probs = predict_probs(assembly, dataset, batch_size)
    scores = scores_for_report(probs, assembly.structure, report)
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
    cfg.validate()
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
                images = np.stack(
                    [augment(im, rng, prob=cfg.augment_prob) for im in images]
                )
            triple = assembly.forward(
                Tensor(images), Tensor(train_set.meta[idx]), "train"
            )
            loss, comps = total_loss(
                triple, train_set.labels[idx], weights, cfg.beta, assembly.structure
            )
            for _, p in named:
                p.zero_grad()
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
    ``offset``, if the dtype is not ``<f8``, if an array lies outside the
    blob or the blob size differs from the manifest total, or if the names
    or shapes do not match the model.
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
    state = {}
    total = 0
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
        count = math.prod(shape)
        if start < 0 or start + 8 * count > len(blob):
            raise FormatError(f"checkpoint array {name!r} lies outside the blob", start)
        arr = np.frombuffer(blob, dtype="<f8", count=count, offset=start)
        state[name] = arr.reshape(shape).astype(np.float64)
        total += 8 * count
    if total != len(blob):
        raise FormatError(
            f"checkpoint blob has {len(blob)} bytes, the manifest describes {total}"
        )
    assembly.load_state(state)
    return assembly
