import numpy as np
import pytest
from scipy import stats as sps

from mmfuse.errors import ConfigError, DataError
from mmfuse.evaluation import (
    accuracy,
    auc_macro_ovr,
    balanced_accuracy,
    confusion,
    metric_report,
    per_class_recall,
    rankdata,
    stratified_kfold,
)


def recall_oracle(y_true, y_pred, n):
    """Brute-force per-class recall counting."""
    recalls = []
    for c in range(n):
        idx = [i for i, t in enumerate(y_true) if t == c]
        if not idx:
            continue
        hits = sum(1 for i in idx if y_pred[i] == c)
        recalls.append(hits / len(idx))
    return float(np.mean(recalls))


def auc_pair_oracle(scores, y_true, c):
    """Exact pair enumeration: wins plus half-ties over all (pos, neg) pairs."""
    pos = scores[y_true == c]
    neg = scores[y_true != c]
    wins = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                wins += 1.0
            elif p == q:
                wins += 0.5
    return wins / (len(pos) * len(neg))


class TestConfusion:
    def test_diagonal_for_perfect(self):
        y = np.array([0, 1, 2, 1])
        cm = confusion(y, y, 3)
        np.testing.assert_array_equal(cm, np.diag([1, 2, 1]))

    def test_single_sample(self):
        cm = confusion([1], [0], 2)
        np.testing.assert_array_equal(cm, [[0, 0], [1, 0]])

    def test_conservation(self):
        rng = np.random.default_rng(0)
        y_true = rng.integers(0, 4, size=100)
        y_pred = rng.integers(0, 4, size=100)
        assert confusion(y_true, y_pred, 4).sum() == 100

    def test_out_of_range(self):
        with pytest.raises(DataError):
            confusion([0, 3], [0, 1], 3)


class TestBalancedAccuracy:
    def test_perfect(self):
        assert balanced_accuracy(np.diag([3, 5])) == 1.0

    def test_always_majority_two_class(self):
        y_true = np.array([0] * 70 + [1] * 30)
        y_pred = np.zeros(100, dtype=int)
        assert balanced_accuracy(confusion(y_true, y_pred, 2)) == 0.5

    def test_constructed_recalls(self):
        # recalls 0.9, 0.6, 0.75 -> mean 0.75
        cm = np.array([[9, 1, 0], [2, 6, 2], [3, 2, 15]])
        oracle = (9 / 10 + 6 / 10 + 15 / 20) / 3
        assert balanced_accuracy(cm) == oracle == 0.75

    def test_invariant_under_class_duplication(self):
        rng = np.random.default_rng(1)
        y_true = rng.integers(0, 3, size=60)
        y_pred = rng.integers(0, 3, size=60)
        bac = balanced_accuracy(confusion(y_true, y_pred, 3))
        dup = y_true == 0
        y_true2 = np.concatenate([y_true, y_true[dup]])
        y_pred2 = np.concatenate([y_pred, y_pred[dup]])
        bac2 = balanced_accuracy(confusion(y_true2, y_pred2, 3))
        np.testing.assert_allclose(bac, bac2, rtol=1e-12)

    def test_equals_accuracy_on_uniform_distribution(self):
        rng = np.random.default_rng(2)
        y_true = np.repeat(np.arange(4), 25)
        y_pred = rng.integers(0, 4, size=100)
        cm = confusion(y_true, y_pred, 4)
        np.testing.assert_allclose(balanced_accuracy(cm), accuracy(cm), rtol=1e-12)

    def test_zero_sample_class_excluded(self):
        cm = np.array([[3, 0], [0, 0]])
        assert balanced_accuracy(cm) == 1.0

    def test_empty_matrix(self):
        with pytest.raises(DataError):
            balanced_accuracy(np.zeros((2, 2), dtype=int))


class TestAccuracy:
    def test_perfect(self):
        assert accuracy(np.diag([2, 2])) == 1.0

    def test_uniform_random_near_chance(self):
        rng = np.random.default_rng(3)
        n, k = 20000, 4
        y_true = rng.integers(0, k, size=n)
        y_pred = rng.integers(0, k, size=n)
        acc = accuracy(confusion(y_true, y_pred, k))
        sigma = np.sqrt(0.25 * 0.75 / n)
        assert abs(acc - 1 / k) < 3 * sigma

    def test_trace_bounded(self):
        rng = np.random.default_rng(4)
        cm = rng.integers(0, 10, size=(3, 3))
        assert np.trace(cm) <= cm.sum()


class TestRankdata:
    def _assert_bitwise_scipy(self, x):
        ours, ref = rankdata(x), sps.rankdata(x)
        assert ours.dtype == ref.dtype == np.float64
        assert ours.shape == ref.shape
        assert ours.tobytes() == ref.tobytes()

    def test_length_one(self):
        self._assert_bitwise_scipy(np.array([0.3]))

    def test_all_tied(self):
        for n in (2, 3, 7):
            self._assert_bitwise_scipy(np.full(n, 0.5))

    def test_mixed_ties(self):
        self._assert_bitwise_scipy(np.array([3.0, 1.0, 3.0, 2.0, 1.0, 3.0, -0.0, 0.0]))
        rng = np.random.default_rng(10)
        for _ in range(200):
            x = np.round(rng.normal(size=int(rng.integers(1, 60))), int(rng.integers(0, 2)))
            self._assert_bitwise_scipy(x)

    def test_random_floats(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            self._assert_bitwise_scipy(rng.normal(size=int(rng.integers(1, 200))))


class TestAuc:
    def test_perfect_separation(self):
        scores = np.array([[0.9, 0.1], [0.8, 0.2], [0.1, 0.9], [0.2, 0.8]])
        y = np.array([0, 0, 1, 1])
        assert auc_macro_ovr(scores, y) == 1.0

    def test_constant_scores(self):
        scores = np.full((10, 3), 0.5)
        y = np.array([0, 1, 2] * 3 + [0])
        assert auc_macro_ovr(scores, y) == 0.5

    def test_one_inversion(self):
        scores = np.zeros((4, 2))
        scores[:, 1] = [0.9, 0.4, 0.6, 0.1]
        scores[:, 0] = 1 - scores[:, 1]
        y = np.array([1, 1, 0, 0])
        assert auc_pair_oracle(scores[:, 1], y, 1) == 0.75
        np.testing.assert_allclose(auc_macro_ovr(scores, y), 0.75)

    def test_matches_pair_enumeration(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            n, k = int(rng.integers(6, 40)), int(rng.integers(2, 4))
            y = rng.integers(0, k, size=n)
            while len(np.unique(y)) < k:
                y = rng.integers(0, k, size=n)
            scores = np.round(rng.uniform(size=(n, k)), 1)  # force ties
            expected = np.mean([auc_pair_oracle(scores[:, c], y, c) for c in range(k)])
            np.testing.assert_allclose(auc_macro_ovr(scores, y), expected, atol=1e-12)

    def test_invariant_under_monotone_transform(self):
        rng = np.random.default_rng(6)
        y = rng.integers(0, 3, size=30)
        scores = rng.uniform(size=(30, 3))
        a = auc_macro_ovr(scores, y)
        b = auc_macro_ovr(np.exp(5 * scores), y)
        np.testing.assert_allclose(a, b, atol=1e-12)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_scores_rejected(self, bad):
        scores = np.random.default_rng(8).uniform(size=(6, 2))
        scores[2, 1] = bad
        with pytest.raises(DataError, match="non-finite"):
            auc_macro_ovr(scores, np.array([0, 1, 0, 1, 0, 1]))

    def test_absent_class_skipped_with_warning(self):
        scores = np.random.default_rng(7).uniform(size=(6, 3))
        y = np.array([0, 0, 1, 1, 0, 1])  # class 2 absent
        with pytest.warns(UserWarning, match="class 2"):
            auc_macro_ovr(scores, y)


class TestStratifiedKFold:
    def test_exact_proportions(self):
        labels = np.array([0] * 60 + [1] * 40)
        folds = stratified_kfold(labels, 5, seed=1)
        for fold in folds:
            counts = np.bincount(labels[fold], minlength=2)
            np.testing.assert_array_equal(counts, [12, 8])

    def test_leave_one_out_single_class(self):
        labels = np.zeros(7, dtype=int)
        folds = stratified_kfold(labels, 7, seed=0)
        assert sorted(len(f) for f in folds) == [1] * 7

    def test_same_seed_same_split(self):
        labels = np.random.default_rng(8).integers(0, 3, size=50)
        a = stratified_kfold(labels, 5, seed=3)
        b = stratified_kfold(labels, 5, seed=3)
        for fa, fb in zip(a, b):
            np.testing.assert_array_equal(fa, fb)

    def test_partition_property(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            labels = rng.integers(0, 4, size=int(rng.integers(20, 80)))
            folds = stratified_kfold(labels, 5, seed=int(rng.integers(100)))
            allidx = np.concatenate(list(folds))
            assert len(allidx) == len(labels)
            assert len(np.unique(allidx)) == len(labels)

    def test_k_exceeding_n(self):
        with pytest.raises(ConfigError):
            stratified_kfold(np.zeros(3, dtype=int), 5)

    def test_k_below_two(self):
        with pytest.raises(ConfigError):
            stratified_kfold(np.zeros(5, dtype=int), 1)


def test_metric_report_bundle():
    y = np.array([0, 1, 0, 1])
    scores = np.array([[0.8, 0.2], [0.3, 0.7], [0.6, 0.4], [0.1, 0.9]])
    rep = metric_report(confusion(y, scores.argmax(1), 2), scores, y)
    assert rep["bac"] == 1.0 and rep["acc"] == 1.0 and rep["auc"] == 1.0
    assert rep["per_class_recall"] == [1.0, 1.0]


def test_per_class_recall_nan_for_absent():
    r = per_class_recall(np.array([[2, 0], [0, 0]]))
    assert r[0] == 1.0 and np.isnan(r[1])
