"""Multimodal (image + tabular metadata) fusion classification, numpy only.

The package provides a small reverse-mode autodiff engine, per-modality
encoders, concatenation and multi-head attention fusion modules, joint and
joint-individual classifier structures, an SGD training loop, metrics, a
stratified k-fold harness, and Friedman/Wilcoxon method comparison.
"""

from .autodiff import Tensor, grad_check
from .data import Dataset, SyntheticSpec, generate_synthetic, load_dataset
from .encoders import (
    Column,
    ImageEncoder,
    MetadataEncoder,
    MetadataSchema,
    one_hot_encode,
)
from .evaluation import (
    accuracy,
    auc_macro_ovr,
    balanced_accuracy,
    confusion,
    stratified_kfold,
)
from .fusion import ConcatFusion, MMFAFusion
from .layers import Module
from .stats import FoldResultTable, compare_methods, friedman, wilcoxon_signed_rank
from .structures import (
    ModelAssembly,
    class_weights_from_counts,
    decision_fuse,
    total_loss,
)
from .training import TrainConfig, augment, cosine_lr, sgd_step, train

__version__ = "0.1.0"
