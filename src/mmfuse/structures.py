"""Classifier assemblies over the encoders and fusion modules.

``STRUCTURES`` lists the heads each structure trains, in construction
order; assembly, loss, prediction and reporting all read it. Head ``im``
reads the fused feature, ``i`` the image feature, ``m`` the metadata one.
``ModelAssembly`` is built from a ``ModelConfig`` alone, computes in its
dataset's dtype (float32 for float32 images, else float64), and its
``forward`` returns each head's logits: the loss reads them directly, and
only prediction applies the softmax.

* ``image``: the image encoder and head ``i``.
* ``jf`` (joint fusion): both encoders, a fusion module and head ``im``.
* ``jif`` (joint-individual fusion): jf plus heads ``i`` and ``m``. Training
  combines the three cross-entropy terms as beta * L_i + (1 - beta) * L_m +
  L_im, and at test time the three predicted distributions can be averaged
  (decision-level fusion). A one-head structure's loss is its head's term.
  Either way ``total_loss`` builds the loss as one
  ``autodiff.cross_entropy_logits`` node over the heads' logits.

The fused prediction path of ``jif`` is operation-for-operation the ``jf``
path; with shared weights the two produce identical fused predictions.
"""

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .encoders import ImageEncoder, MetadataEncoder
from .errors import ConfigError, ContractError
from .fusion import ConcatFusion, MMFAFusion
from .layers import Linear, Module, Params

STRUCTURES = {"image": ("i",), "jf": ("im",), "jif": ("im", "i", "m")}


def reported_scores(structure, report):
    """(method-name suffix, probability key) of each score a structure
    reports; validation selects on the last one."""
    heads = STRUCTURES[structure]
    if len(heads) == 1:
        return [("", heads[0])]
    return [("-OFB", "im")] + ([("-ALL", "fused")] if report == "all" else [])


@dataclass
class PredictionTriple:
    """Per-head logits; a head the structure lacks stays None."""

    logits_im: ad.Tensor = None
    logits_i: ad.Tensor = None
    logits_m: ad.Tensor = None


class ModelAssembly(Module):
    """Encoders + fusion + heads wired as the structure a ``ModelConfig`` names."""

    def __init__(self, model_cfg, dataset, rng):
        """Build from the config; the image encoder, metadata encoder and
        fusion draw from ``rng`` in that order, then the heads in
        ``STRUCTURES`` order. The parameters and running statistics are
        drawn in float64 and then cast once to the dataset's dtype."""
        heads = STRUCTURES[model_cfg.structure]
        self.structure = model_cfg.structure
        self.n_classes = dataset.n_classes
        self.image_encoder = ImageEncoder(
            in_shape=dataset.images.shape[1:],
            channels=model_cfg.channels,
            out_dim=model_cfg.image_features,
            rng=rng,
        )
        widths = {"i": model_cfg.image_features, "m": model_cfg.metadata_features}
        self.metadata_encoder = self.fusion = None
        if "im" in heads:
            self.metadata_encoder = MetadataEncoder(
                in_width=dataset.meta.shape[1],
                out_dim=model_cfg.metadata_features,
                hidden=model_cfg.metadata_hidden,
                rng=rng,
            )
            if model_cfg.fusion == "mmfa":
                self.fusion = MMFAFusion(
                    model_cfg.image_features,
                    model_cfg.metadata_features,
                    rng=rng,
                    heads=model_cfg.heads,
                )
            else:
                self.fusion = ConcatFusion(
                    model_cfg.image_features, model_cfg.metadata_features
                )
            widths["im"] = self.fusion.out_width
        self.head_im = self.head_i = self.head_m = None
        for k in heads:
            setattr(self, "head_" + k, make_head(widths[k], self.n_classes, rng))
        self.dtype = ad._compute_dtype(dataset.images)
        self._params = Params(super().params(), self.dtype)
        self.cast_buffers(self.dtype)

    def params(self):
        """The ``Params`` built with the model: every parameter and its
        gradient are views into its two flat vectors."""
        return self._params

    named_parameters = params

    def zero_grads(self):
        self._params.grad.fill(0.0)

    def forward(self, images, meta, mode):
        """Run the structure on a batch; returns the per-head logits.

        Raises ``ContractError`` if the images or the metadata do not have
        the model's dtype.
        """
        for what, t in (("images", images), ("metadata", meta)):
            if t is not None and t.data.dtype != self.dtype:
                raise ContractError(f"{what} are {t.data.dtype}, the model is {self.dtype}")
        features = {"i": self.image_encoder(images, mode)}
        if self.fusion is not None:
            features["m"] = self.metadata_encoder(meta, mode)
            features["im"] = self.fusion(features["i"], features["m"], mode)
        return PredictionTriple(**{
            "logits_" + k: getattr(self, "head_" + k)(features[k])
            for k in STRUCTURES[self.structure]
        })


def total_loss(triple, labels, class_weights, beta, structure):
    """Structure loss and its components.

    One weighted cross-entropy per head of the structure, summed in one
    ``autodiff.cross_entropy_logits`` node: jif as beta*L_i + (1-beta)*L_m
    + L_im, a one-head structure as its head's term. Returns (total,
    components dict keyed ``L_<HEAD>``).
    """
    if structure not in STRUCTURES:
        raise ConfigError(f"unknown structure {structure!r}")
    if not 0.0 <= beta <= 1.0:
        raise ConfigError(f"beta must lie in [0, 1], got {beta}")
    keys, coefs = STRUCTURES[structure], (1.0,)
    if len(keys) > 1:  # jif, in summation order
        keys, coefs = ("i", "m", "im"), (beta, 1.0 - beta, 1.0)
    heads = []
    for key in keys:
        logits = getattr(triple, "logits_" + key)
        if logits is None:
            raise ContractError(f"{structure} loss needs the {key!r} prediction branch")
        heads.append(logits)
    w = np.asarray(class_weights, dtype=np.float64)
    if w.ndim != 1 or w.shape[0] != heads[0].data.shape[-1]:
        raise ConfigError(
            f"class weights shape {w.shape} does not match {heads[0].data.shape[-1]} classes"
        )
    if np.any(w <= 0):
        raise ConfigError("class weights must be strictly positive")
    total, losses = ad.cross_entropy_logits(heads, labels, w, coefs)
    return total, {"L_" + key.upper(): loss for key, loss in zip(keys, losses)}


def decision_fuse(p_i, p_m, p_im):
    """Average the three predicted distributions (test-time fusion)."""
    if p_i is None or p_m is None or p_im is None:
        raise ContractError("decision fusion needs all three predictions")
    return (p_i + p_m + p_im) / 3.0


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
