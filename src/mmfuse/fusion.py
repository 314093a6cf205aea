"""Fusion of per-sample image and metadata embeddings.

Two fusion modules are provided. ``fuse_concat`` simply joins the two
vectors. ``MMFAFusion`` (multi-modal fusion attention) projects each
modality to query/key/value triples with a shared single-layer network per
modality, concatenates them metadata-first, applies multi-head
per-coordinate gating attention, projects back, and adds the plain
image-first concatenation as a skip connection. The output width always
equals width(f_img) + width(f_meta).

Attention here gates feature coordinates: each head forms weights
softmax((K * Q) / sqrt(s)) over its s coordinates and multiplies them into
V elementwise. ``scale_after_softmax`` instead divides the softmax output
by sqrt(s), which shrinks the attention term relative to the skip path;
it is kept selectable for comparison.
"""

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .errors import DimensionError
from .layers import BatchNorm, Linear, Module


def fuse_concat(f_img, f_meta):
    """Row-wise concatenation, image features first."""
    if f_img.data.shape[0] != f_meta.data.shape[0]:
        raise DimensionError(
            f"batch sizes differ: {f_img.data.shape[0]} vs {f_meta.data.shape[0]}"
        )
    return ad.concat(f_img, f_meta)


@dataclass(frozen=True)
class AttentionConfig:
    """Head count and per-modality projection widths of the attention block."""

    heads: int
    d_img: int
    d_meta: int
    scale_after_softmax: bool = False

    def __post_init__(self):
        if self.heads < 1:
            raise DimensionError(f"head count must be positive, got {self.heads}")
        if self.width % self.heads != 0:
            raise DimensionError(
                f"attention width {self.width} not divisible by {self.heads} heads"
            )

    @property
    def width(self):
        return self.d_img + self.d_meta

    @property
    def head_width(self):
        return self.width // self.heads


class QkvBranch(Module):
    """Single-layer projection of one modality to a (q, k, v) triple.

    The linear output of width 3*d is batch-normalized and divided into
    contiguous equal thirds, in (query, key, value) order.
    """

    def __init__(self, d_in, d_out, rng):
        self.lin = Linear(d_in, 3 * d_out, rng)
        self.bn = BatchNorm(3 * d_out)

    def __call__(self, f, mode):
        return ad.split_thirds(self.bn(self.lin(f), mode))


def assemble_kqv(img_qkv, meta_qkv):
    """Concatenate per-modality q/k/v, metadata part first, into F_Q, F_K, F_V."""
    iq, ik, iv = img_qkv
    mq, mk, mv = meta_qkv
    return ad.concat(mq, iq), ad.concat(mk, ik), ad.concat(mv, iv)


def attention_heads(f_q, f_k, f_v, cfg):
    """Multi-head per-coordinate gating attention.

    Each of f_q/f_k/f_v (B, width) is split into ``heads`` contiguous
    blocks of ``head_width`` coordinates. Per head, weights are the softmax
    of the elementwise K*Q product (temperature sqrt(head_width)), and the
    head output is weights * V elementwise. Heads are concatenated back.

    Returns the (B, width) output tensor and the attention weights as a
    plain (B, heads, head_width) array; each head's weights sum to 1 unless
    ``scale_after_softmax`` rescales them by 1/sqrt(head_width).
    """
    for t in (f_q, f_k, f_v):
        if t.data.ndim != 2 or t.data.shape[1] != cfg.width:
            raise DimensionError(
                f"attention input {t.data.shape} does not match width {cfg.width}"
            )
    b = f_q.data.shape[0]
    h, s = cfg.heads, cfg.head_width
    kq = ad.reshape(ad.mul(f_k, f_q), (b * h, s))
    if cfg.scale_after_softmax:
        w = ad.scale(ad.softmax(kq), 1.0 / np.sqrt(s))
    else:
        w = ad.softmax(ad.scale(kq, 1.0 / np.sqrt(s)))
    v = ad.reshape(f_v, (b * h, s))
    out = ad.reshape(ad.mul(w, v), (b, h * s))
    return out, w.data.reshape(b, h, s).copy()


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
        self.cfg = AttentionConfig(
            heads=heads,
            d_img=d_img_in,
            d_meta=d_meta_in,
            scale_after_softmax=scale_after_softmax,
        )
        self.out_width = d_img_in + d_meta_in
        self.qkv_img = QkvBranch(d_img_in, d_img_in, rng)
        self.qkv_meta = QkvBranch(d_meta_in, d_meta_in, rng)
        self.out_lin = Linear(self.cfg.width, self.out_width, rng)
        self.out_bn = BatchNorm(self.out_width)
        self.last_weights = None

    def __call__(self, f_img, f_meta, mode):
        """out_bn(out_lin(MHA(...))) + concat(f_img, f_meta)."""
        if f_img.data.shape[0] != f_meta.data.shape[0]:
            raise DimensionError(
                f"batch sizes differ: {f_img.data.shape[0]} vs {f_meta.data.shape[0]}"
            )
        img_qkv = self.qkv_img(f_img, mode)
        meta_qkv = self.qkv_meta(f_meta, mode)
        f_q, f_k, f_v = assemble_kqv(img_qkv, meta_qkv)
        attended, self.last_weights = attention_heads(f_q, f_k, f_v, self.cfg)
        projected = self.out_bn(self.out_lin(attended), mode)
        return ad.add(projected, fuse_concat(f_img, f_meta))


class ConcatFusion(Module):
    """Parameter-free concatenation baseline with the fusion-module interface."""

    def __init__(self, d_img_in, d_meta_in):
        self.out_width = d_img_in + d_meta_in

    def __call__(self, f_img, f_meta, mode):
        return fuse_concat(f_img, f_meta)
