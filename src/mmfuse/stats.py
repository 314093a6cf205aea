"""Nonparametric comparison of methods over paired runs.

The pipeline is a Friedman omnibus test on within-run ranks followed, when
the omnibus is significant, by pairwise two-sided Wilcoxon signed-rank
tests. The Wilcoxon p-value is exact for small samples: the full null
distribution of the positive-rank sum is built by convolution over the
(tie-averaged) ranks, which agrees with enumerating all 2^n sign
assignments. Larger samples use the tie-corrected normal approximation
with continuity correction.
"""

import csv
import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ContractError, DataError, DegenerateSampleError
from .evaluation import rankdata

EXACT_LIMIT = 12  # auto mode switches to the normal approximation above this
_EXACT_HARD_CAP = 50  # 2^n counts must stay within int64


@dataclass(frozen=True)
class FoldResultTable:
    """Rectangular method x run table of metric values in [0, 1]."""

    methods: tuple
    runs: tuple
    values: np.ndarray  # shape (n_runs, n_methods)

    def __post_init__(self):
        if len(self.methods) < 2 or len(self.runs) < 2:
            raise ContractError("need at least 2 methods and 2 runs")
        if self.values.shape != (len(self.runs), len(self.methods)):
            raise DataError(
                f"value table {self.values.shape} does not match "
                f"{len(self.runs)} runs x {len(self.methods)} methods"
            )
        if not np.all(np.isfinite(self.values)):
            raise DataError("table contains non-finite values")
        if self.values.min() < 0.0 or self.values.max() > 1.0:
            raise DataError("metric values must lie in [0, 1]")

    def column(self, method):
        return self.values[:, self.methods.index(method)]

    @classmethod
    def from_rows(cls, rows):
        """Build from (method, run, value) triples; must be rectangular."""
        methods, runs, cells = [], [], {}
        for method, run, value in rows:
            if method not in methods:
                methods.append(method)
            if run not in runs:
                runs.append(run)
            if (method, run) in cells:
                raise DataError(f"duplicate cell for method {method!r}, run {run!r}")
            cells[(method, run)] = float(value)
        missing = [
            (m, r) for m in methods for r in runs if (m, r) not in cells
        ]
        if missing:
            raise DataError(f"ragged table; missing cells: {missing[:5]}")
        values = np.array([[cells[(m, r)] for m in methods] for r in runs])
        return cls(methods=tuple(methods), runs=tuple(runs), values=values)

    @classmethod
    def from_csv(cls, *paths, metric="bac"):
        """Read one or more CSVs with header columns method, run, <metric>."""
        rows = []
        for path in paths:
            with open(path, newline="") as fh:
                reader = csv.DictReader(fh)
                fields = reader.fieldnames or []
                for col in ("method", "run", metric):
                    if col not in fields:
                        raise DataError(f"{path}: missing column {col!r}")
                for rec in reader:
                    try:
                        value = float(rec[metric])
                    except (TypeError, ValueError) as e:
                        raise DataError(f"{path}: bad {metric} value {rec[metric]!r}") from e
                    rows.append((rec["method"], rec["run"], value))
        if not rows:
            raise DataError("no result rows found")
        return cls.from_rows(rows)


def _chi2_sf(x, df):
    """Chi-square survival function P(X > x) for an integer df >= 1 (A&S 26.4.4-26.4.5).

    Even df: exp(-x/2) * sum_{r<df/2} (x/2)^r / r!. Odd df: erfc(sqrt(x/2))
    plus sqrt(2/pi) exp(-x/2) * sum_{r=1}^{(df-1)/2} chi^(2r-1) / (1*3*...*(2r-1))
    with chi = sqrt(x). Every term is positive, so nothing cancels.
    """
    x = float(x)
    if df % 2 == 0:
        term = total = 1.0
        for r in range(1, df // 2):
            term *= x / (2.0 * r)
            total += term
        return math.exp(-0.5 * x) * total
    chi = math.sqrt(x)
    term = chi
    total = 0.0
    for r in range(1, (df + 1) // 2):
        total += term
        term *= x / (2.0 * r + 1.0)
    tail = math.sqrt(2.0 / math.pi) * math.exp(-0.5 * x) * total
    return math.erfc(chi / math.sqrt(2.0)) + tail


@dataclass(frozen=True)
class FriedmanResult:
    chi2: float
    df: int
    p: float


def friedman(table):
    """Friedman rank test over the table, with the standard tie correction.

    chi2 = 12n/(k(k+1)) * sum_j (Rbar_j - (k+1)/2)^2, divided by
    C = 1 - sum(t^3 - t) / (n k (k^2 - 1)); p from the chi-square survival
    function with k - 1 degrees of freedom.
    """
    values = table.values
    n, k = values.shape
    ranks = np.apply_along_axis(rankdata, 1, values)
    rbar = ranks.mean(axis=0)
    numer = 12.0 * n / (k * (k + 1)) * np.sum((rbar - (k + 1) / 2.0) ** 2)
    ties = 0.0
    for row in values:
        _, counts = np.unique(row, return_counts=True)
        ties += np.sum(counts.astype(np.float64) ** 3 - counts)
    c = 1.0 - ties / (n * k * (k * k - 1.0))
    if c <= 0.0:
        # every row fully tied; the statistic is 0 by construction
        return FriedmanResult(chi2=0.0, df=k - 1, p=1.0)
    stat = numer / c
    return FriedmanResult(chi2=float(stat), df=k - 1, p=_chi2_sf(stat, k - 1))


@dataclass(frozen=True)
class WilcoxonResult:
    w: float
    p_two_sided: float
    n_effective: int
    mode: str


def _exact_distribution(double_ranks):
    """Counts of the positive-rank-sum null distribution, indexed by 2*W+."""
    total = int(double_ranks.sum())
    counts = np.zeros(total + 1, dtype=np.int64)
    counts[0] = 1
    for r in double_ranks:
        shifted = np.zeros_like(counts)
        shifted[r:] = counts[: counts.size - r]
        counts = counts + shifted
    return counts


def wilcoxon_signed_rank(a, b, mode="auto"):
    """Two-sided Wilcoxon signed-rank test on paired samples.

    Zero differences are dropped. ``mode`` is "exact" (full null
    distribution of W+), "normal" (tie-corrected approximation with
    continuity correction), or "auto" (exact up to n_effective = 12).
    The reported statistic is min(W+, W-).
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise ContractError("paired samples must be equal-length vectors")
    if a.size < 2:
        raise ContractError("need at least 2 paired observations")
    if mode not in ("auto", "exact", "normal"):
        raise ConfigError(f"unknown mode {mode!r}")
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise DataError("paired samples contain non-finite values")
    d = a - b
    d = d[d != 0.0]
    n = d.size
    if n == 0:
        raise DegenerateSampleError("all paired differences are zero")
    ranks = rankdata(np.abs(d))
    w_plus = float(ranks[d > 0].sum())
    w_minus = float(ranks[d < 0].sum())
    w = min(w_plus, w_minus)
    if mode == "auto":
        mode = "exact" if n <= EXACT_LIMIT else "normal"
    if mode == "exact":
        if n > _EXACT_HARD_CAP:
            raise ConfigError(f"exact mode supports up to {_EXACT_HARD_CAP} pairs")
        double_ranks = np.rint(2.0 * ranks).astype(np.int64)
        counts = _exact_distribution(double_ranks)
        idx = int(round(2.0 * w_plus))
        total = float(2.0**n)
        p_le = counts[: idx + 1].sum() / total
        p_ge = counts[idx:].sum() / total
        p = min(1.0, 2.0 * min(p_le, p_ge))
    else:
        mean = n * (n + 1) / 4.0
        _, tie_counts = np.unique(ranks, return_counts=True)
        tie_term = np.sum(tie_counts.astype(np.float64) ** 3 - tie_counts) / 48.0
        var = n * (n + 1) * (2 * n + 1) / 24.0 - tie_term
        if var <= 0:
            raise DegenerateSampleError("zero-variance rank sum (all ranks tied away)")
        dmean = w_plus - mean
        z = (dmean - 0.5 * np.sign(dmean)) / np.sqrt(var)
        p = min(1.0, math.erfc(abs(z) / math.sqrt(2.0)))
    return WilcoxonResult(w=w, p_two_sided=float(p), n_effective=n, mode=mode)


@dataclass(frozen=True)
class PairwiseResult:
    method_a: str
    method_b: str
    w: float
    p: float
    n_effective: int
    significant: bool


@dataclass(frozen=True)
class ComparisonReport:
    friedman: FriedmanResult
    alpha: float
    gated: bool
    pairwise: tuple  # of PairwiseResult; empty when not gated

    def to_dict(self):
        return {
            "friedman": {
                "chi2": self.friedman.chi2,
                "df": self.friedman.df,
                "p": self.friedman.p,
            },
            "alpha": self.alpha,
            "pairwise_performed": self.gated,
            "pairwise": [
                {
                    "pair": f"{r.method_a} - {r.method_b}",
                    "w": r.w,
                    "p_value": r.p,
                    "n_effective": r.n_effective,
                    "significant": r.significant,
                }
                for r in self.pairwise
            ],
        }

    def to_json(self):
        return json.dumps(self.to_dict(), indent=2)

    def to_markdown(self):
        """Pairwise table with non-significant p-values (p > alpha) in bold."""
        lines = [
            f"Friedman test: chi2 = {self.friedman.chi2:.6g}, "
            f"df = {self.friedman.df}, p = {self.friedman.p:.6g}",
            "",
        ]
        if not self.gated:
            lines.append(
                f"Omnibus p >= {self.alpha:g}; pairwise tests not performed."
            )
            return "\n".join(lines) + "\n"
        lines += ["| Model-Pairs | P_value |", "| --- | --- |"]
        for r in self.pairwise:
            cell = f"{r.p:.6g}"
            pair = f"{r.method_a} - {r.method_b}"
            if r.p > self.alpha:
                lines.append(f"| **{pair}** | **{cell}** |")
            else:
                lines.append(f"| {pair} | {cell} |")
        return "\n".join(lines) + "\n"


def compare_methods(table, alpha=0.05, mode="auto"):
    """Friedman omnibus, then pairwise Wilcoxon tests when it passes alpha."""
    if not 0.0 < alpha < 1.0:
        raise ConfigError(f"alpha must lie in (0, 1), got {alpha}")
    omnibus = friedman(table)
    gated = omnibus.p < alpha
    pairs = []
    if gated:
        for ma, mb in itertools.combinations(table.methods, 2):
            res = wilcoxon_signed_rank(table.column(ma), table.column(mb), mode=mode)
            pairs.append(
                PairwiseResult(
                    method_a=ma,
                    method_b=mb,
                    w=res.w,
                    p=res.p_two_sided,
                    n_effective=res.n_effective,
                    significant=res.p_two_sided < alpha,
                )
            )
    return ComparisonReport(
        friedman=omnibus, alpha=alpha, gated=gated, pairwise=tuple(pairs)
    )
