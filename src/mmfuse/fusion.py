"""Fusion of per-sample image and metadata embeddings.

Both fusion modules are called as ``fusion(f_img, f_meta, mode)`` and
output width(f_img) + width(f_meta) columns. ``ConcatFusion`` joins the
two vectors, image first. ``MMFAFusion`` (multi-modal fusion attention)
projects each modality to a (query, key, value) triple with one bias-free
linear -> batch norm unit (``LinearBN``) per modality, concatenates them
metadata-first, applies multi-head per-coordinate gating attention
(``attention_heads``), projects back with a third ``LinearBN``, and adds
the plain image-first concatenation as a skip connection.

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


def attention_heads(f_q, f_k, f_v, heads, scale_after_softmax=False):
    """Multi-head per-coordinate gating attention.

    Each of f_q/f_k/f_v (B, width) is split into ``heads`` contiguous
    blocks of width // heads coordinates. Per head, weights are the softmax
    of the elementwise K*Q product (temperature sqrt(width // heads)), and
    the head output is weights * V elementwise. Heads are concatenated back.

    Returns the (B, width) output tensor and the attention weights as a
    plain (B, heads, width // heads) array; each head's weights sum to 1
    unless ``scale_after_softmax`` rescales them by 1/sqrt(width // heads).
    """
    shape = f_q.data.shape
    if len(shape) != 2 or f_k.data.shape != shape or f_v.data.shape != shape:
        raise DimensionError(
            f"attention inputs {shape}, {f_k.data.shape}, {f_v.data.shape} "
            "are not 2-D of one shape"
        )
    b, width = shape
    _check_heads(width, heads)
    s = width // heads
    kq = ad.reshape(ad.mul(f_k, f_q), (b * heads, s))
    if scale_after_softmax:
        w = ad.scale(ad.softmax(kq), 1.0 / np.sqrt(s))
    else:
        w = ad.softmax(ad.scale(kq, 1.0 / np.sqrt(s)))
    v = ad.reshape(f_v, (b * heads, s))
    out = ad.reshape(ad.mul(w, v), (b, width))
    return out, w.data.reshape(b, heads, s).copy()


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
        iq, ik, iv = ad.split_thirds(self.qkv_img(f_img, mode))
        mq, mk, mv = ad.split_thirds(self.qkv_meta(f_meta, mode))
        attended, self.last_weights = attention_heads(
            ad.concat(mq, iq), ad.concat(mk, ik), ad.concat(mv, iv),
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
