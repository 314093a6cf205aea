"""SGD training loop with cosine-annealed learning rate and early stopping.

Each epoch t runs over a seeded shuffle of the training set, optionally
augmenting images, at learning rate

    lr(t) = 0.5 * lr0 * (1 + cos(pi * t / T)).

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
import math
import tokenize
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
    patience: int = 30
    batch_size: int = 16
    seed: int = 0
    beta: float = 0.5
    augment: bool = True

    def validate(self):
        if self.epochs < 1:
            raise ConfigError("epochs must be >= 1")
        if self.patience < 1:
            raise ConfigError("patience must be >= 1")
        if not self.lr0 > 0:
            raise ConfigError("lr0 must be positive")
        if not 0 <= self.beta <= 1:
            raise ConfigError("beta must lie in [0, 1]")
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
        with open(path, "w", newline="", encoding="utf-8") as fh:
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


def cosine_lr(t, total, lr0):
    """Cosine-annealed learning rate at epoch t of a total-epoch schedule."""
    if total <= 0:
        raise ConfigError("total epoch count must be positive")
    if not 0 <= t <= total:
        raise ConfigError(f"epoch {t} outside [0, {total}]")
    return 0.5 * lr0 * (1.0 + math.cos(math.pi * t / total))


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


def predict_probs(assembly, dataset, rows, batch_size=32):
    """Eval-mode class probabilities per branch for the dataset rows
    ``rows``, in that order: the softmax of each head's logits, plus their
    decision-level average ("fused") for a three-head structure.

    Eval blocks fold batch norm, and the forward passes run under
    ``no_graph``, so nothing records a graph. Eval scores each sample on its
    own; each chunk of 32 rows is gathered from the dataset's arrays, which
    keeps a validation pass's memory peak below a batch-16 training step's
    (a 72-sample 16x16 fold as one batch made 4 MB of float64 im2col in
    block 0, 2 MB in float32).
    """
    rows = np.asarray(rows, dtype=np.intp)
    probs = {}
    for start in range(0, len(rows), batch_size):
        chunk = rows[start : start + batch_size]
        images = Tensor(dataset.images[chunk])
        meta = Tensor(dataset.meta[chunk])
        with no_graph():
            triple = assembly.forward(images, meta, "eval")
            parts = {
                k: ad._softmax(getattr(triple, "logits_" + k).data)
                for k in STRUCTURES[assembly.structure]
            }
        if len(parts) == 3:
            parts["fused"] = decision_fuse(parts["i"], parts["m"], parts["im"])
        for key, val in parts.items():
            probs.setdefault(key, []).append(val)
    return {k: np.concatenate(v, axis=0) for k, v in probs.items()}


def eval_bac(assembly, dataset, rows, report):
    """Balanced accuracy of the reported scores on the dataset rows ``rows``."""
    probs = predict_probs(assembly, dataset, rows)
    scores = probs[reported_scores(assembly.structure, report)[-1][1]]
    cm = confusion(dataset.labels[rows], scores.argmax(axis=1), assembly.n_classes)
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


def train(assembly, dataset, train_rows, val_rows, cfg, report="all"):
    """Fit the assembly on the dataset rows ``train_rows``, validating on
    ``val_rows``; returns (assembly with best-epoch weights, TrainLog).

    Each batch is gathered from the dataset's arrays, so no split is copied.
    """
    train_rows = np.asarray(train_rows, dtype=np.intp)
    val_rows = np.asarray(val_rows, dtype=np.intp)
    if len(train_rows) < 2 or len(val_rows) == 0:
        raise ConfigError(
            "the train split needs at least 2 samples and the validation split 1"
        )
    counts = np.bincount(dataset.labels[train_rows], minlength=assembly.n_classes)
    weights = class_weights_from_counts(counts)
    rng = np.random.default_rng(cfg.seed)
    named = assembly.params()
    log = TrainLog()
    best_state = None

    for epoch in range(cfg.epochs):
        lr = cosine_lr(epoch, cfg.epochs, cfg.lr0)
        order = rng.permutation(len(train_rows))
        sums = {}
        batches = 0
        for idx in _batches(order, cfg.batch_size):
            rows = train_rows[idx]
            images = dataset.images[rows]
            if cfg.augment:
                images = augment(images, rng)
            triple = assembly.forward(Tensor(images), Tensor(dataset.meta[rows]), "train")
            loss, comps = total_loss(
                triple, dataset.labels[rows], weights, cfg.beta, assembly.structure
            )
            assembly.zero_grads()
            loss.backward()
            sgd_step(named, lr)
            for key, val in comps.items():
                sums[key] = sums.get(key, 0.0) + val
            batches += 1

        val_bac = eval_bac(assembly, dataset, val_rows, report)
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
# checkpoints: one .npy file that numpy alone reads back


def save_checkpoint(assembly, path):
    """Write ``assembly.state()`` to the ``.npy`` file ``path`` as one 0-d
    structured array: a field per array, in ``state()`` order, with the
    array's shape and the model's little-endian dtype (``<f4`` or ``<f8``).
    The payload after the header is those arrays' bytes, concatenated."""
    dtype = assembly.dtype.newbyteorder("<")
    state = assembly.state()
    record = np.empty((), [(name, dtype, arr.shape) for name, arr in state.items()])
    for name, arr in state.items():
        record[name] = arr
    with open(path, "wb") as fh:  # np.save would append ".npy" to any other name
        np.save(fh, record, allow_pickle=False)


def load_checkpoint(assembly, path):
    """Load a checkpoint written by ``save_checkpoint`` into ``assembly``.

    Raises ``FormatError`` naming ``path`` if numpy cannot read it without
    pickle, if bytes follow the array, if it is not a 0-d structured array
    whose every field has the model's dtype, or if the names or shapes do
    not match the model (then nothing is written). numpy refuses a header
    over 10,000 bytes, which holds about 200 arrays.
    """
    with open(path, "rb") as fh:
        try:
            record = np.load(fh, allow_pickle=False)
        # numpy's header parser lets SyntaxError and TokenError through
        except (ValueError, EOFError, SyntaxError, tokenize.TokenError) as e:
            raise FormatError(f"{path}: not a checkpoint: {e}") from None
        if fh.read(1):
            raise FormatError(f"{path}: bytes follow the checkpoint's array")
    if not (isinstance(record, np.ndarray) and record.shape == () and record.dtype.names):
        raise FormatError(f"{path}: a checkpoint is a 0-d structured array")
    dtype = assembly.dtype.newbyteorder("<")
    for name in record.dtype.names:
        if record.dtype[name].base != dtype:
            raise FormatError(
                f"{path}: checkpoint array {name!r} has dtype "
                f"{record.dtype[name].base.str}, the model's is {dtype.str}"
            )
    assembly.load_state({name: record[name] for name in record.dtype.names})
    return assembly
