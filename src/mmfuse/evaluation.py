"""Classification metrics and the stratified k-fold splitter.

BAC is macro-averaged recall (classes without true samples are skipped),
ACC is the confusion-matrix trace over the total, and AUC is macro
one-vs-rest with the rank-based Mann-Whitney formulation (ties counted as
half), so every value is exactly reproducible by pair counting.
"""

import warnings

import numpy as np

from .errors import ConfigError, DataError


def confusion(y_true, y_pred, n_classes):
    """Count matrix with rows = ground truth, columns = prediction."""
    y_true = np.asarray(y_true, dtype=np.intp)
    y_pred = np.asarray(y_pred, dtype=np.intp)
    if y_true.shape != y_pred.shape:
        raise DataError(f"label shapes differ: {y_true.shape} vs {y_pred.shape}")
    for name, y in (("true", y_true), ("predicted", y_pred)):
        if y.size and (y.min() < 0 or y.max() >= n_classes):
            raise DataError(f"{name} labels out of range [0, {n_classes})")
    cm = np.zeros((n_classes, n_classes), dtype=np.int64)
    np.add.at(cm, (y_true, y_pred), 1)
    return cm


def per_class_recall(cm):
    cm = np.asarray(cm)
    totals = cm.sum(axis=1)
    recall = np.full(cm.shape[0], np.nan)
    present = totals > 0
    recall[present] = np.diag(cm)[present] / totals[present]
    return recall


def balanced_accuracy(cm):
    """Mean per-class recall over classes that have at least one true sample."""
    cm = np.asarray(cm)
    if cm.sum() == 0:
        raise DataError("balanced accuracy of an empty confusion matrix")
    recall = per_class_recall(cm)
    return float(np.nanmean(recall))


def accuracy(cm):
    cm = np.asarray(cm)
    total = cm.sum()
    if total == 0:
        raise DataError("accuracy of an empty confusion matrix")
    return float(np.trace(cm) / total)


def rankdata(x):
    """Average ranks of a 1-D array, 1-based; tied values share the mean of their positions.

    A tie group of size c ending at sorted position e gets e - (c - 1) / 2. The
    ranks are half-integers, so they are exact in float64.
    """
    _, inverse, counts = np.unique(x, return_inverse=True, return_counts=True)
    return (np.cumsum(counts) - (counts - 1) / 2.0)[inverse]


def _auc_binary(scores, is_pos):
    """Rank-based Mann-Whitney AUC (ties count half)."""
    n_pos = int(is_pos.sum())
    n_neg = is_pos.size - n_pos
    ranks = rankdata(scores)
    u = ranks[is_pos].sum() - n_pos * (n_pos + 1) / 2.0
    return u / (n_pos * n_neg)


def auc_macro_ovr(scores, y_true):
    """Macro average of one-vs-rest AUCs over the score columns.

    A class with no positives (or no negatives) is skipped with a warning
    and the macro average is taken over the remaining classes.
    """
    scores = np.asarray(scores, dtype=np.float64)
    y_true = np.asarray(y_true, dtype=np.intp)
    if scores.ndim != 2 or scores.shape[0] != y_true.shape[0]:
        raise DataError(f"scores {scores.shape} do not match {y_true.shape[0]} labels")
    if not np.all(np.isfinite(scores)):
        raise DataError("scores contain non-finite values")
    aucs = []
    for c in range(scores.shape[1]):
        is_pos = y_true == c
        if is_pos.all() or not is_pos.any():
            warnings.warn(f"class {c} absent from one side; skipped in macro AUC")
            continue
        aucs.append(_auc_binary(scores[:, c], is_pos))
    if not aucs:
        raise DataError("no class had both positives and negatives")
    return float(np.mean(aucs))


def metric_report(cm, scores, y_true):
    """Bundle of the standard metrics, JSON-ready."""
    return {
        "bac": balanced_accuracy(cm),
        "acc": accuracy(cm),
        "auc": auc_macro_ovr(scores, y_true),
        "per_class_recall": [
            None if np.isnan(r) else float(r) for r in per_class_recall(cm)
        ],
    }


def stratified_kfold(labels, k, seed=0):
    """Deal each class's (shuffled) indices round-robin over k folds; returns a
    tuple of k disjoint, exhaustive, sorted index arrays."""
    labels = np.asarray(labels)
    n = labels.shape[0]
    if k < 2:
        raise ConfigError(f"need at least 2 folds, got {k}")
    if k > n:
        raise ConfigError(f"cannot split {n} samples into {k} folds")
    rng = np.random.default_rng(seed)
    folds = [[] for _ in range(k)]
    for c in np.unique(labels):
        idx = np.flatnonzero(labels == c)
        rng.shuffle(idx)
        for j, i in enumerate(idx):
            folds[j % k].append(int(i))
    return tuple(np.sort(np.array(f, dtype=np.intp)) for f in folds)
