"""Multimodal (image + tabular metadata) fusion classification, numpy only.

The package provides a small reverse-mode autodiff engine, per-modality
encoders, concatenation and multi-head attention fusion modules, joint and
joint-individual classifier structures, an SGD training loop, metrics, a
stratified k-fold harness, and Friedman/Wilcoxon method comparison.
Import names from the submodules: the package re-exports none, so that
importing one module loads only what that module needs.
"""

__version__ = "0.1.0"
