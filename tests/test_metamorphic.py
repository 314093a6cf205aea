"""Metamorphic relations of the whole model and its data plumbing
(Xie et al., "Testing and validating machine learning classifiers by
metamorphic testing", JSS 84(4), 2011).

* Class relabelling: renaming the classes (labels, class weights and the
  heads' output columns by one permutation) leaves the loss and its
  components unchanged and permutes the predicted probabilities.
* Splits: ``stratified_kfold`` partitions any label vector into folds
  that each hold every class in equal shares, up to one sample.
* Encoding: ``one_hot_encode`` fills exactly the schema's columns, one
  block of ``Column.width`` per column.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from mmfuse.autodiff import Tensor  # noqa: E402
from mmfuse.data import SyntheticSpec, generate_synthetic  # noqa: E402
from mmfuse.encoders import Column, MetadataSchema, one_hot_encode  # noqa: E402
from mmfuse.evaluation import stratified_kfold  # noqa: E402
from mmfuse.experiment import ModelConfig, build_assembly  # noqa: E402
from mmfuse.structures import STRUCTURES, PredictionTriple, total_loss  # noqa: E402
from mmfuse.training import predict_probs  # noqa: E402

PROPERTY = settings(max_examples=200, deadline=None, database=None, derandomize=True)


@st.composite
def relabelling(draw, n_classes=st.integers(2, 5)):
    """(n, perm): class c is renamed perm[c]."""
    n = draw(n_classes)
    return n, np.array(draw(st.permutations(range(n))))


def rename_columns(a, perm):
    """``a`` with its column c moved to column perm[c]."""
    out = np.empty_like(a)
    out[..., perm] = a
    return out


@PROPERTY
@given(
    relabel=relabelling(),
    structure=st.sampled_from(sorted(STRUCTURES)),
    batch=st.integers(1, 8),
    beta=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**16),
)
def test_loss_is_invariant_under_class_relabelling(relabel, structure, batch, beta, seed):
    (n, perm), rng = relabel, np.random.default_rng(seed)
    labels = rng.integers(0, n, size=batch)
    weights = rng.uniform(0.2, 3.0, size=n)
    logits = {k: rng.normal(scale=3.0, size=(batch, n)) for k in STRUCTURES[structure]}

    def loss(labels, weights, logits):
        leaves = {k: Tensor(z, requires_grad=True) for k, z in logits.items()}
        triple = PredictionTriple(**{"logits_" + k: t for k, t in leaves.items()})
        total, parts = total_loss(triple, labels, weights, beta, structure)
        total.backward()
        return float(total.data), parts, {k: t.grad for k, t in leaves.items()}

    total, parts, grads = loss(labels, weights, logits)
    total_r, parts_r, grads_r = loss(
        perm[labels], rename_columns(weights, perm),
        {k: rename_columns(z, perm) for k, z in logits.items()},
    )
    np.testing.assert_allclose(total_r, total, rtol=0, atol=1e-12)
    assert parts_r.keys() == parts.keys()
    for key in parts:
        np.testing.assert_allclose(parts_r[key], parts[key], rtol=0, atol=1e-12)
    for key in grads:
        np.testing.assert_allclose(grads_r[key], rename_columns(grads[key], perm),
                                   rtol=0, atol=1e-12)


MODEL = ModelConfig(
    structure="jif", fusion="mmfa", report="all", image_features=4, metadata_features=2,
    heads=2, channels=(2, 2, 2), metadata_hidden=(3,),
)


@pytest.fixture(scope="module")
def four_classes():
    return generate_synthetic(
        SyntheticSpec(n_classes=4, per_class=3, image_shape=(3, 8, 8), seed=3)
    )


@settings(PROPERTY, max_examples=40)
@given(perm=st.permutations(range(4)), seed=st.integers(0, 2**16))
def test_probabilities_permute_with_the_head_columns(four_classes, perm, seed):
    perm = np.array(perm)
    plain = build_assembly(MODEL, four_classes, np.random.default_rng(seed))
    renamed = build_assembly(MODEL, four_classes, np.random.default_rng(seed))
    for key in STRUCTURES["jif"]:
        head = getattr(renamed, "head_" + key)
        head.w.data[...] = rename_columns(head.w.data, perm)
        head.b.data[...] = rename_columns(head.b.data, perm)
    rows = np.arange(len(four_classes))
    probs = predict_probs(plain, four_classes, rows)
    probs_r = predict_probs(renamed, four_classes, rows)
    assert probs_r.keys() == probs.keys() == {"im", "i", "m", "fused"}
    for key in probs:
        np.testing.assert_allclose(probs_r[key], rename_columns(probs[key], perm),
                                   rtol=0, atol=1e-12)


@PROPERTY
@given(
    labels=st.lists(st.integers(0, 4), min_size=2, max_size=40),
    k=st.integers(2, 6),
    seed=st.integers(0, 2**16),
)
def test_stratified_kfold_partitions_with_per_class_balance(labels, k, seed):
    labels = np.array(labels)
    k = min(k, len(labels))
    folds = stratified_kfold(labels, k, seed)  # a class may be smaller than k
    assert len(folds) == k
    joined = np.concatenate(folds)
    np.testing.assert_array_equal(np.sort(joined), np.arange(len(labels)))
    for fold in folds:
        np.testing.assert_array_equal(fold, np.sort(fold))
    for c in np.unique(labels):
        counts = [int(np.sum(labels[fold] == c)) for fold in folds]
        assert max(counts) - min(counts) <= 1, (c, counts)


names = st.text("abcxyz", min_size=1, max_size=4)


@st.composite
def schema_and_row(draw):
    """A schema of up to five distinct columns and one record for it, with
    missing, in-vocabulary, out-of-vocabulary and numeric values."""
    columns, row = [], {}
    for name in draw(st.lists(names, max_size=5, unique=True)):
        if draw(st.booleans()):
            vocab = tuple(draw(st.lists(names, min_size=1, max_size=4, unique=True)))
            columns.append(Column(name, "categorical", vocab=vocab))
            row[name] = draw(st.sampled_from(vocab + ("", None, "unseen")))
        else:
            low = draw(st.floats(-100, 100))
            columns.append(Column(name, "numeric", min=low, max=low + 1.0))
            row[name] = draw(st.one_of(st.just(""), st.floats(-1e3, 1e3).map(str)))
    return MetadataSchema(columns=tuple(columns), classes=("C0", "C1")), row


@PROPERTY
@given(case=schema_and_row())
def test_one_hot_width_is_the_schema_width(case):
    schema, row = case
    vec = one_hot_encode(row, schema)
    widths = [len(c.vocab) + 1 if c.kind == "categorical" else 1 for c in schema.columns]
    assert vec.shape == (schema.encoded_width,) == (sum(widths),)
    blocks = np.split(vec, np.cumsum(widths)[:-1]) if widths else []
    for col, block in zip(schema.columns, blocks):
        if col.kind == "categorical":
            assert sorted(block) == [0.0] * (len(block) - 1) + [1.0], (col, block)
        else:
            assert 0.0 <= block[0] <= 1.0
