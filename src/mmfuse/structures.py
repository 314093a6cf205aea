"""Classifier assemblies over the encoders and fusion modules.

Three structures are supported:

* ``image``: image encoder + one classifier head on f_img.
* ``jf`` (joint fusion): both encoders, a fusion module, and a single head
  on the fused feature.
* ``jif`` (joint-individual fusion): the jf path plus individual heads on
  f_img and f_meta. Training combines the three cross-entropy terms as
  beta * L_img + (1 - beta) * L_meta + L_fused, and at test time the three
  predicted distributions can be averaged (decision-level fusion).

The fused prediction path of ``jif`` is operation-for-operation the ``jf``
path; with shared weights the two produce identical fused predictions.
"""

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .errors import ConfigError, ContractError, DimensionError
from .layers import Linear, Module

STRUCTURES = ("image", "jf", "jif")


@dataclass
class PredictionTriple:
    """Per-branch predicted distributions (and the logits they came from)."""

    p_im: ad.Tensor = None
    p_i: ad.Tensor = None
    p_m: ad.Tensor = None
    logits_im: ad.Tensor = None
    logits_i: ad.Tensor = None
    logits_m: ad.Tensor = None


class ModelAssembly(Module):
    """Encoders + fusion + heads wired as one of the supported structures."""

    def __init__(self, structure, n_classes, image_encoder, metadata_encoder=None,
                 fusion=None, head_im=None, head_i=None, head_m=None):
        if structure not in STRUCTURES:
            raise ConfigError(f"unknown structure {structure!r}")
        self.structure = structure
        self.n_classes = n_classes
        self.image_encoder = image_encoder
        self.metadata_encoder = metadata_encoder
        self.fusion = fusion
        self.head_im = head_im
        self.head_i = head_i
        self.head_m = head_m
        self._validate()

    def _validate(self):
        s = self.structure
        if s == "image":
            if self.head_i is None:
                raise ConfigError("image structure needs the image head")
            if self.fusion is not None or self.head_im is not None or self.head_m is not None:
                raise ConfigError("image structure takes no fusion module or extra heads")
        else:
            if self.metadata_encoder is None or self.fusion is None or self.head_im is None:
                raise ConfigError(f"{s} structure needs both encoders, fusion, and the fused head")
            if s == "jf" and (self.head_i is not None or self.head_m is not None):
                raise ConfigError("jf structure has exactly one head")
            if s == "jif" and (self.head_i is None or self.head_m is None):
                raise ConfigError("jif structure needs all three heads")

    def forward(self, images, meta, mode):
        """Run the structure on a batch; returns the prediction triple."""
        if self.structure == "image":
            f_i = self.image_encoder(images, mode)
            z_i = self.head_i(f_i)
            return PredictionTriple(p_i=ad.softmax(z_i), logits_i=z_i)
        if images.data.shape[0] != meta.data.shape[0]:
            raise DimensionError(
                f"batch sizes differ: {images.data.shape[0]} vs {meta.data.shape[0]}"
            )
        f_i = self.image_encoder(images, mode)
        f_m = self.metadata_encoder(meta, mode)
        fused = self.fusion(f_i, f_m, mode)
        z_im = self.head_im(fused)
        triple = PredictionTriple(p_im=ad.softmax(z_im), logits_im=z_im)
        if self.structure == "jif":
            z_i = self.head_i(f_i)
            z_m = self.head_m(f_m)
            triple.p_i = ad.softmax(z_i)
            triple.logits_i = z_i
            triple.p_m = ad.softmax(z_m)
            triple.logits_m = z_m
        return triple


def weighted_ce(logits, labels, class_weights):
    """Class-weighted cross-entropy of the softmax distribution.

    Computed from logits with log-sum-exp for stability; identical to
    -(1/B) * sum_b w[y_b] * log P[b, y_b].
    """
    w = np.asarray(class_weights, dtype=np.float64)
    if w.ndim != 1 or w.shape[0] != logits.data.shape[1]:
        raise ConfigError(
            f"class weights shape {w.shape} does not match {logits.data.shape[1]} classes"
        )
    if np.any(w <= 0):
        raise ConfigError("class weights must be strictly positive")
    labels = np.asarray(labels)
    if labels.size and (labels.min() < 0 or labels.max() >= logits.data.shape[1]):
        raise ContractError("labels out of range")
    return ad.cross_entropy_logits(logits, labels, w)


def combine_losses(l_i, l_m, l_im, beta):
    """Total loss of the three-branch structure: beta*L_i + (1-beta)*L_m + L_im."""
    if not 0.0 <= beta <= 1.0:
        raise ConfigError(f"beta must lie in [0, 1], got {beta}")
    return ad.add(ad.add(ad.scale(l_i, beta), ad.scale(l_m, 1.0 - beta)), l_im)


def total_loss(triple, labels, class_weights, beta, structure):
    """Structure loss and its components.

    jif: beta*L_i + (1-beta)*L_m + L_im over the three branches;
    jf: L_im alone; image: L_i alone. Returns (total, components dict).
    """
    if structure == "jif":
        if triple.logits_i is None or triple.logits_m is None or triple.logits_im is None:
            raise ContractError("jif loss needs all three prediction branches")
        l_i = weighted_ce(triple.logits_i, labels, class_weights)
        l_m = weighted_ce(triple.logits_m, labels, class_weights)
        l_im = weighted_ce(triple.logits_im, labels, class_weights)
        total = combine_losses(l_i, l_m, l_im, beta)
        comps = {"L_I": float(l_i.data), "L_M": float(l_m.data), "L_IM": float(l_im.data)}
    elif structure == "jf":
        if triple.logits_im is None:
            raise ContractError("jf loss needs the fused branch")
        total = weighted_ce(triple.logits_im, labels, class_weights)
        comps = {"L_IM": float(total.data)}
    elif structure == "image":
        if triple.logits_i is None:
            raise ContractError("image loss needs the image branch")
        total = weighted_ce(triple.logits_i, labels, class_weights)
        comps = {"L_I": float(total.data)}
    else:
        raise ConfigError(f"unknown structure {structure!r}")
    return total, comps


def decision_fuse(triple):
    """Average the three predicted distributions (test-time fusion)."""
    if triple.p_i is None or triple.p_m is None or triple.p_im is None:
        raise ContractError("decision fusion needs all three predictions")
    return (triple.p_i.data + triple.p_m.data + triple.p_im.data) / 3.0


def class_weights_from_counts(counts):
    """Inverse-frequency weights w_c = total / (N * count_c); uniform -> ones."""
    counts = np.asarray(counts, dtype=np.float64)
    if np.any(counts < 1):
        raise ConfigError(
            "every class needs at least one training sample; "
            "use stratified splitting to keep all classes in each split"
        )
    return counts.sum() / (counts.size * counts)


def make_head(d_in, n_classes, rng):
    """Linear classifier head producing one logit per class."""
    return Linear(d_in, n_classes, rng)
