import numpy as np
import pytest
from scipy import stats as sps
from scipy.stats import rankdata

from mmfuse import stats
from mmfuse.errors import ConfigError, ContractError, DataError, DegenerateSampleError
from mmfuse.stats import (
    FoldResultTable,
    _chi2_sf,
    _holm,
    compare_methods,
    friedman,
    wilcoxon_signed_rank,
)


def wilcoxon_enumeration_oracle(a, b):
    """Two-sided p by enumerating all 2^n sign assignments of the ranks."""
    d = np.asarray(a, dtype=float) - np.asarray(b, dtype=float)
    d = d[d != 0.0]
    n = d.size
    ranks = rankdata(np.abs(d))
    w_obs = ranks[d > 0].sum()
    patterns = ((np.arange(2**n)[:, None] >> np.arange(n)) & 1).astype(float)
    w_all = patterns @ ranks
    p_le = np.mean(w_all <= w_obs + 1e-12)
    p_ge = np.mean(w_all >= w_obs - 1e-12)
    return min(1.0, 2.0 * min(p_le, p_ge))


def wilcoxon_integer_oracle(a, b):
    """Two-sided p from the null counts of 2*W+, kept in Python ints, over 2^n."""
    d = np.asarray(a, dtype=float) - np.asarray(b, dtype=float)
    d = d[d != 0.0]
    ranks = rankdata(np.abs(d))
    counts = [1]
    for r in (int(round(2.0 * x)) for x in ranks):
        counts = [
            (counts[i] if i < len(counts) else 0) + (counts[i - r] if i >= r else 0)
            for i in range(len(counts) + r)
        ]
    obs = int(round(2.0 * ranks[d > 0].sum()))
    tail = min(sum(counts[: obs + 1]), sum(counts[obs:]))
    return min(1.0, 2 * tail / 2**d.size)


def table(values, methods=None):
    values = np.asarray(values, dtype=float)
    methods = methods or tuple(f"m{j}" for j in range(values.shape[1]))
    runs = tuple(f"r{i}" for i in range(values.shape[0]))
    return FoldResultTable(methods=tuple(methods), runs=runs, values=values)


class TestFriedman:
    def test_identical_methods(self):
        res = friedman(table(np.tile([0.5, 0.5, 0.5], (4, 1))))
        assert res.chi2 == 0.0 and res.p == 1.0

    def test_consistent_ordering_fixture(self):
        res = friedman(table(np.tile([0.1, 0.2, 0.3], (3, 1))))
        assert res.chi2 == 6.0
        assert res.df == 2
        np.testing.assert_allclose(res.p, np.exp(-3.0), rtol=1e-12)

    def test_column_permutation_invariance(self):
        rng = np.random.default_rng(0)
        values = rng.uniform(size=(6, 4))
        a = friedman(table(values))
        b = friedman(table(values[:, [2, 0, 3, 1]]))
        np.testing.assert_allclose(a.chi2, b.chi2, rtol=1e-12)

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(1)
        values = rng.uniform(0.1, 0.9, size=(5, 3))
        a = friedman(table(values))
        b = friedman(table(values**3))  # strictly monotone on [0,1]
        assert a.chi2 == b.chi2

    def test_degenerate_table_rejected(self):
        with pytest.raises(ContractError):
            FoldResultTable(methods=("a",), runs=("r0", "r1"), values=np.zeros((2, 1)))


class TestChi2Sf:
    @pytest.mark.parametrize("df", range(1, 12))
    def test_matches_scipy(self, df):
        xs = np.concatenate([np.geomspace(1e-8, 80.0, 400), np.linspace(0.05, 80.0, 1600)])
        ours = np.array([_chi2_sf(x, df) for x in xs])
        np.testing.assert_allclose(ours, sps.chi2.sf(xs, df), rtol=1e-12, atol=0)

    @pytest.mark.parametrize("df", [1, 2, 3, 10])
    def test_one_at_zero(self, df):
        assert _chi2_sf(0.0, df) == 1.0


class TestWilcoxon:
    def test_all_positive_differences(self):
        res = wilcoxon_signed_rank(
            np.array([0.2, 0.3, 0.4, 0.5, 0.6]),
            np.array([0.1, 0.2, 0.3, 0.4, 0.5]),
        )
        assert res.w == 0.0
        assert res.p_two_sided == 2.0 / 32.0
        assert res.n_effective == 5

    def test_identical_samples_degenerate(self):
        x = np.array([0.1, 0.2, 0.3])
        with pytest.raises(DegenerateSampleError):
            wilcoxon_signed_rank(x, x)

    def test_antisymmetry(self):
        rng = np.random.default_rng(2)
        a, b = rng.uniform(size=10), rng.uniform(size=10)
        r1 = wilcoxon_signed_rank(a, b)
        r2 = wilcoxon_signed_rank(b, a)
        assert r1.p_two_sided == r2.p_two_sided
        assert r1.w == r2.w

    def test_zero_differences_dropped(self):
        a = np.array([1.0, 2.0, 3.0, 4.0])
        b = np.array([1.0, 1.5, 2.0, 4.0])
        res = wilcoxon_signed_rank(a, b)
        assert res.n_effective == 2

    def test_matches_enumeration_with_ties(self):
        rng = np.random.default_rng(3)
        for _ in range(60):
            n = int(rng.integers(2, 11))
            a = np.round(rng.uniform(size=n), 1)
            b = np.round(rng.uniform(size=n), 1)
            if np.all(a == b):
                continue
            res = wilcoxon_signed_rank(a, b)
            oracle = wilcoxon_enumeration_oracle(a, b)
            np.testing.assert_allclose(res.p_two_sided, oracle, atol=1e-12)

    def test_matches_scipy_exact_without_ties(self):
        rng = np.random.default_rng(10)
        for n in range(13, 51):
            a, b = rng.uniform(size=n), rng.uniform(size=n)
            expected = sps.wilcoxon(a, b, method="exact").pvalue
            assert wilcoxon_signed_rank(a, b).p_two_sided == expected

    def test_matches_integer_convolution_with_ties(self):
        rng = np.random.default_rng(11)
        for n in range(2, 61):
            a = np.round(rng.uniform(size=n), 1)
            b = np.round(rng.uniform(size=n), 1)
            if np.all(a == b):
                continue
            res = wilcoxon_signed_rank(a, b)
            expected = wilcoxon_integer_oracle(a, b)
            np.testing.assert_allclose(res.p_two_sided, expected, rtol=1e-12, atol=0)

    def test_too_many_pairs_rejected_before_convolving(self, monkeypatch):
        def convolve(double_ranks):
            raise AssertionError("convolved")

        monkeypatch.setattr(stats, "_exact_distribution", convolve)
        a = np.linspace(0.5, 1.0, 1001)
        with pytest.raises(DataError, match="at most 1000 .* got 1001"):
            wilcoxon_signed_rank(a, a - 0.25)

    # The ids name the side of the former 12-pair switch to a normal
    # approximation that each size fell on; both sizes now take the exact path.
    @pytest.mark.parametrize("n", [8, 14], ids=["exact", "normal"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("side", ["a", "b"])
    def test_non_finite_rejected(self, n, bad, side):
        a = np.linspace(0.1, 0.9, n)
        b = a[::-1].copy()
        (a if side == "a" else b)[3] = bad
        with pytest.raises(DataError, match="non-finite"):
            wilcoxon_signed_rank(a, b)

    def test_p_in_unit_interval_and_dyadic(self):
        rng = np.random.default_rng(6)
        for _ in range(40):
            n = int(rng.integers(2, 12))
            a, b = rng.uniform(size=n), rng.uniform(size=n)
            res = wilcoxon_signed_rank(a, b)
            assert 0.0 <= res.p_two_sided <= 1.0
            if res.p_two_sided < 1.0:
                # exact two-sided p is a doubled multiple of 2^-n
                assert (res.p_two_sided * 2**res.n_effective / 2) % 1 == 0

    def test_length_validation(self):
        with pytest.raises(ContractError):
            wilcoxon_signed_rank(np.ones(3), np.ones(4))
        with pytest.raises(ContractError):
            wilcoxon_signed_rank(np.ones(1), np.ones(1))


class TestCompareMethods:
    def test_identical_methods_omnibus_only(self):
        rep = compare_methods(table(np.tile([0.4, 0.4], (5, 1))))
        assert rep.friedman.p == 1.0
        assert not rep.gated and rep.pairwise == ()
        assert "pairwise tests not performed" in rep.to_markdown()

    def test_dominant_method_over_ten_runs(self):
        rng = np.random.default_rng(7)
        base = rng.uniform(0.3, 0.5, size=10)
        values = np.column_stack([base + 0.2, base, base - 0.05])
        rep = compare_methods(table(values, methods=("win", "mid", "low")), alpha=0.05)
        assert rep.gated
        assert len(rep.pairwise) == 3  # k(k-1)/2
        top = next(r for r in rep.pairwise if {r.method_a, r.method_b} == {"win", "mid"})
        assert top.p == 2.0 / 2.0**10
        assert top.significant

    def test_markdown_bolds_non_significant(self):
        rng = np.random.default_rng(8)
        base = rng.uniform(0.3, 0.5, size=6)
        jitter = rng.normal(scale=1e-3, size=6)
        values = np.column_stack([base + 0.2, base, base + jitter])
        rep = compare_methods(table(values, methods=("a", "b", "c")))
        md = rep.to_markdown()
        assert "| Model-Pairs | P_value | P_holm |" in md
        for r in rep.pairwise:
            cell = f"| **{r.method_a} - {r.method_b}**"
            assert (cell in md) == (not r.significant)

    def test_identical_pair_reported_with_p_one(self):
        rng = np.random.default_rng(12)
        base = rng.uniform(0.4, 0.6, size=10)
        rep = compare_methods(table(np.column_stack([base, base, base - 0.3]), ("A", "B", "C")))
        assert rep.gated
        same = rep.pairwise[0]
        assert (same.method_a, same.method_b) == ("A", "B")
        assert (same.w, same.p, same.p_holm, same.n_effective) == (0.0, 1.0, 1.0, 0)
        assert not same.significant
        assert all(r.significant for r in rep.pairwise[1:])

    def test_holm_over_equal_raw_p(self):
        # all three pairs are of one sign in every run: raw p = 2/2^10 each,
        # and the step-down gives max(3p, 2p, p) = 3p to every pair
        rng = np.random.default_rng(7)
        base = rng.uniform(0.3, 0.5, size=10)
        values = np.column_stack([base + 0.2, base, base - 0.05])
        rep = compare_methods(table(values, methods=("win", "mid", "low")))
        assert [r.p for r in rep.pairwise] == [2.0 / 2.0**10] * 3
        assert [r.p_holm for r in rep.pairwise] == [6.0 / 2.0**10] * 3

    def test_alpha_validation(self):
        with pytest.raises(ConfigError):
            compare_methods(table(np.zeros((3, 2))), alpha=1.5)

    def test_json_round_trip(self):
        import json

        rep = compare_methods(table(np.tile([0.1, 0.9], (4, 1))))
        parsed = json.loads(rep.to_json())
        assert parsed["alpha"] == 0.05
        assert parsed["pairwise_performed"] == rep.gated


class TestHolm:
    def test_hand_worked_three_pairs(self):
        # sorted: 1/128 * 3 = 3/128, 1/32 * 2 = 8/128, 3/64 * 1 = 6/128 -> max 8/128
        adjusted = _holm([1 / 128, 3 / 64, 1 / 32])
        assert adjusted.tolist() == [3 / 128, 1 / 16, 1 / 16]

    def test_capped_at_one(self):
        assert _holm([0.5, 0.01, 0.9]).tolist() == [1.0, 0.03, 1.0]

    def test_monotone_and_bounded(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            p = rng.uniform(size=int(rng.integers(1, 12))) ** 3
            adjusted = _holm(p)
            order = np.argsort(p, kind="stable")
            assert np.all(np.diff(adjusted[order]) >= 0.0)
            assert np.all(adjusted >= p) and np.all(adjusted <= 1.0)


class TestFoldResultTable:
    def test_from_rows_rectangular(self):
        t = FoldResultTable.from_rows(
            [("a", "r0", 0.5), ("a", "r1", 0.6), ("b", "r0", 0.4), ("b", "r1", 0.3)]
        )
        assert t.methods == ("a", "b")
        np.testing.assert_array_equal(t.column("a"), [0.5, 0.6])

    def test_ragged_rejected(self):
        with pytest.raises(DataError, match="ragged"):
            FoldResultTable.from_rows(
                [("a", "r0", 0.5), ("a", "r1", 0.6), ("b", "r0", 0.4)]
            )

    def test_duplicate_rejected(self):
        with pytest.raises(DataError, match="duplicate"):
            FoldResultTable.from_rows([("a", "r0", 0.5), ("a", "r0", 0.6)] * 2)

    def test_out_of_range_values_rejected(self):
        with pytest.raises(DataError):
            FoldResultTable.from_rows(
                [("a", "r0", 1.5), ("a", "r1", 0.6), ("b", "r0", 0.4), ("b", "r1", 0.3)]
            )

    def test_from_csv(self, tmp_path):
        path = tmp_path / "results.csv"
        path.write_text(
            "method,run,bac,acc,auc\na,r0,0.5,0.5,0.6\na,r1,0.6,0.6,0.7\n"
            "b,r0,0.4,0.4,0.5\nb,r1,0.3,0.3,0.4\n"
        )
        t = FoldResultTable.from_csv(path)
        assert t.methods == ("a", "b") and t.runs == ("r0", "r1")

    def test_from_csv_missing_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("method,value\na,0.5\n")
        with pytest.raises(DataError, match="missing column"):
            FoldResultTable.from_csv(path)
