"""Fusion of per-sample image and metadata embeddings.

Both fusion modules are called as ``fusion(f_img, f_meta, mode)`` and
output width(f_img) + width(f_meta) columns. ``ConcatFusion`` joins the
two vectors, image first. ``MMFAFusion`` (multi-modal fusion attention)
projects each modality to a (query, key, value) triple with one bias-free
linear -> batch norm unit (``LinearBN``) per modality, applies multi-head
per-coordinate gating attention to the triples joined metadata-first
(``autodiff.gating_attention``, one graph node), projects back with a
third ``LinearBN``, and adds the plain image-first concatenation as a skip
connection.

Attention here gates feature coordinates: each head forms weights
softmax((K * Q) / sqrt(s)) over its s coordinates and multiplies them into
V elementwise. ``scale_after_softmax`` instead divides the softmax output
by sqrt(s), which shrinks the attention term relative to the skip path;
it is kept selectable for comparison.
"""

import numpy as np

from . import autodiff as ad
from .errors import DimensionError
from .layers import LinearBN, Module


def _check_heads(width, heads):
    if heads < 1 or width % heads:
        raise DimensionError(f"attention width {width} not divisible by {heads} heads")


class MMFAFusion(Module):
    """Attention fusion module; holds all its parameters.

    Output width is width(f_img) + width(f_meta): the attention path is
    projected to that width and summed elementwise with the image-first
    concatenation of the raw features. With every parameter zeroed the
    module reduces exactly to the concatenation baseline.
    """

    def __init__(self, d_img_in, d_meta_in, rng=None, heads=8,
                 scale_after_softmax=False):
        rng = np.random.default_rng(0) if rng is None else rng
        self.out_width = d_img_in + d_meta_in
        _check_heads(self.out_width, heads)
        self.heads = heads
        self.scale_after_softmax = scale_after_softmax
        self.qkv_img = LinearBN(d_img_in, 3 * d_img_in, rng)
        self.qkv_meta = LinearBN(d_meta_in, 3 * d_meta_in, rng)
        self.out = LinearBN(self.out_width, self.out_width, rng)
        self.last_weights = None

    def __call__(self, f_img, f_meta, mode):
        """out(MHA(...)) + concat(f_img, f_meta); q, k, v are the thirds of
        each projection, and F_Q, F_K, F_V put the metadata part first."""
        attended, self.last_weights = ad.gating_attention(
            self.qkv_meta(f_meta, mode), self.qkv_img(f_img, mode),
            self.heads, self.scale_after_softmax,
        )
        return ad.add(self.out(attended, mode), ad.concat(f_img, f_meta))


class ConcatFusion(Module):
    """Parameter-free concatenation baseline with the fusion-module interface."""

    def __init__(self, d_img_in, d_meta_in):
        self.out_width = d_img_in + d_meta_in

    def __call__(self, f_img, f_meta, mode):
        """Row-wise concatenation, image features first."""
        return ad.concat(f_img, f_meta)
