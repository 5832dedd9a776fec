"""Goodness-of-fit and moment comparison for simulated ensembles.

All tests return a self-describing `TestReport`.  KS p-values use the
asymptotic Kolmogorov distribution (adequate at the sample sizes used
here, n >= 1e3); verification suites run with fixed seeds so pass/fail
is deterministic.  Thresholds are fixed (KS and chi-square pass at
p > `ALPHA`, moments within 3 SE); only `ks_two_sample` takes ``blocking``.

Every p-value comes from `scipy.special` (``kolmogorov``, ``chdtrc``),
the functions `scipy.stats` calls underneath, so this module loads
neither `scipy.stats` nor what it drags in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

ALPHA = 0.01  # significance level of every goodness-of-fit test
# Relative width of "within rounding": a few ulps of the values' magnitude.
_ROUNDING = 4 * float(np.finfo(float).eps)


@dataclass
class TestReport:
    __test__ = False  # a report, not a pytest test class
    name: str
    statistic: float
    p_value: float | None
    tolerance: float
    passed: bool
    sample_size: int | None = None
    detail: str = ""
    blocking: bool = True

    def as_dict(self) -> dict:
        return {"name": self.name, "statistic": self.statistic,
                "p_value": self.p_value, "tolerance": self.tolerance,
                "pass": self.passed, "sample_size": self.sample_size,
                "detail": self.detail, "blocking": self.blocking}

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        p = "-" if self.p_value is None else f"{self.p_value:.3g}"
        return (f"{status}  {self.name}  statistic={self.statistic:.4g}  "
                f"p={p}  tol={self.tolerance:.3g}")


def bound_report(name: str, statistic: float, tolerance: float,
                 detail: str = "",
                 sample_size: int | None = None) -> TestReport:
    """A row without a p-value: passes iff ``statistic <= tolerance``
    (so a NaN statistic fails)."""
    return TestReport(name=name, statistic=statistic, p_value=None,
                      tolerance=tolerance, passed=bool(statistic <= tolerance),
                      sample_size=sample_size, detail=detail)


def _require_sorted(values: np.ndarray, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1 or arr.size < 10:
        raise ValueError(f"{name}: need a 1-d sample of size >= 10")
    if not np.isfinite(arr).all():  # NaN would slip past the order check
        raise ValueError(f"{name}: values must be finite")
    if np.any(np.diff(arr) < 0):
        raise ValueError(f"{name}: values must be sorted ascending")
    return arr


def ks_one_sample(values, cdf, name: str = "ks_one_sample") -> TestReport:
    """One-sample KS test of sorted values against a callable CDF.

    The CDF must map the sample's support onto [0, 1] (renormalize
    unconditional laws by their a.c. mass before calling).
    """
    arr = _require_sorted(values, name)
    n = arr.size
    f = np.asarray(cdf(arr), dtype=float)
    grid = np.arange(1, n + 1) / n
    d_plus = np.max(grid - f)
    d_minus = np.max(f - (grid - 1.0 / n))
    d = max(d_plus, d_minus)
    p = float(special.kolmogorov(np.sqrt(n) * d))
    return TestReport(name=name, statistic=float(d), p_value=p,
                      tolerance=ALPHA, passed=p > ALPHA, sample_size=n)


def ks_two_sample(a, b, name: str = "ks_two_sample",
                  blocking: bool = True) -> TestReport:
    """Two-sample KS test with asymptotic p-value.

    D is read from one stable merge of the two sorted samples: at the
    last entry of each run of equal values the integer counts of each
    sample are those of every value up to and including it, so
    ``count / size`` is each empirical CDF there, bit for bit.
    """
    x = _require_sorted(a, name + "[a]")
    y = _require_sorted(b, name + "[b]")
    n, m = x.size, y.size
    both = np.concatenate([x, y])
    order = np.argsort(both, kind="stable")  # merges the two sorted runs
    both = both[order]
    count_x = np.cumsum(order < n)  # entries of x up to each position
    del order
    ties = both[1:] == both[:-1]
    del both
    count = np.arange(1, n + m + 1)
    if ties.any():
        ends = np.append(~ties, True)
        count_x, count = count_x[ends], count[ends]
    gap = count_x / n
    count -= count_x  # entries of y
    gap -= count / m
    np.abs(gap, out=gap)
    d = float(gap.max())
    en = np.sqrt(n * m / (n + m))
    p = float(special.kolmogorov(en * d))
    return TestReport(name=name, statistic=d, p_value=p, tolerance=ALPHA,
                      passed=p > ALPHA, sample_size=n + m, blocking=blocking)


def chi_square_masses(observed: dict[str, int], expected: dict[str, float],
                      name: str = "chi_square") -> TestReport:
    """Pearson chi-square of stratum counts against expected masses.

    ``expected`` must be a full partition (positive masses summing to
    1); counts must be >= 0; cells missing from ``observed`` count as
    zero, and a positive count in a cell missing from ``expected`` (mass
    zero) raises ValueError.
    """
    total_mass = sum(expected.values())
    if abs(total_mass - 1.0) > 1e-9:
        raise ValueError(f"expected masses must sum to 1, got {total_mass}")
    if not all(mass > 0 for mass in expected.values()):  # NaN fails too
        raise ValueError("every expected mass must be positive")
    if not all(obs >= 0 for obs in observed.values()):
        raise ValueError("every count must be >= 0")
    if any(obs > 0 and cell not in expected for cell, obs in observed.items()):
        raise ValueError("a count falls in a cell of zero expected mass")
    n = sum(observed.values())
    if n < 1000:
        raise ValueError("chi_square_masses needs >= 1000 observations")
    stat = 0.0
    for cell, mass in expected.items():
        exp_count = n * mass
        obs = observed.get(cell, 0)
        stat += (obs - exp_count) ** 2 / exp_count
    dof = len(expected) - 1
    p = float(special.chdtrc(dof, stat))
    return TestReport(name=name, statistic=stat, p_value=p, tolerance=ALPHA,
                      passed=p > ALPHA, sample_size=n, detail=f"dof={dof}")


def z_score(values, target: float) -> float:
    """Standardized deviation (mean - target) / SE of a sample mean.

    SE = std(values, ddof=1) / sqrt(n).  A sample whose spread is within
    rounding of its magnitude counts as constant: numpy's mean and std
    of identical values can be off by an ulp (``np.std`` of 1e5 copies
    of cos 0.5 is 1.1e-16, not 0), and dividing that noise by itself
    gives |z| ~ sqrt(n).  A constant sample scores 0 when its mean equals
    ``target`` to within a few ulps, and +-inf otherwise.
    """
    arr = np.asarray(values, dtype=float)
    mean = float(np.mean(arr))
    sd = float(np.std(arr, ddof=1))
    diff = mean - target
    if sd <= _ROUNDING * abs(mean):
        if abs(diff) <= _ROUNDING * max(abs(mean), abs(target)):
            return 0.0
        return math.copysign(math.inf, diff)
    return diff / (sd / math.sqrt(arr.size))


def moment_compare(samples, analytic: float, m: int,
                   name: str = "moment_compare") -> TestReport:
    """Check the sample m-th moment against an analytic value (3-sigma).

    The statistic is `z_score` of u^m against the analytic value:
    (sample moment - analytic) / SE with SE = std(u^m)/sqrt(n).
    """
    arr = np.asarray(samples, dtype=float)
    powers = arr ** m
    n = arr.size
    sample_moment = float(np.mean(powers))
    z = z_score(powers, analytic)
    return TestReport(name=name, statistic=z, p_value=None,
                      tolerance=3.0, passed=abs(z) <= 3.0, sample_size=n,
                      detail=f"sample={sample_moment:.6g} analytic={analytic:.6g}")
