"""Statistics harness: null calibration, power, and report plumbing."""

import json
import math

import numpy as np
import pytest
from scipy import special
from scipy.stats import chi2

from cyclic_motion import rng
from cyclic_motion.model import ModelParams
from cyclic_motion.simulate import simulate_ensemble
from cyclic_motion.stats import (TestReport, bound_report,
                                 chi_square_masses, ks_one_sample, ks_two_sample,
                                 moment_compare, z_score)


def _uniforms(seed, n):
    return rng.uniform_column(rng.substream_keys(seed, 0, n), 0)


def test_report_round_trip_and_line():
    rep = TestReport(name="x", statistic=0.5, p_value=0.2, tolerance=0.01,
                     passed=True, sample_size=100, detail="d")
    d = json.loads(json.dumps(rep.as_dict()))
    assert d["pass"] is True
    assert d["name"] == "x"
    assert d["blocking"] is True
    assert "PASS" in rep.line()
    rep2 = TestReport(name="y", statistic=1.0, p_value=None, tolerance=0.0,
                      passed=False)
    assert "FAIL" in rep2.line() and "p=-" in rep2.line()


def test_ks_one_sample_null_calibration():
    # under the null, p > 0.01 should hold in >= 95 of 100 seeded runs
    passes = 0
    for seed in range(100):
        u = np.sort(_uniforms(1000 + seed, 2000))
        rep = ks_one_sample(u, lambda x: np.clip(x, 0, 1))
        passes += rep.passed
    assert passes >= 95


def test_ks_one_sample_power():
    u = np.sort(_uniforms(7, 20_000) ** 1.15)  # mild deviation
    rep = ks_one_sample(u, lambda x: np.clip(x, 0, 1))
    assert not rep.passed
    assert rep.p_value < 1e-6


def test_ks_p_monotone_in_statistic():
    # fixed n: a larger KS distance must give a smaller p-value
    base = np.sort(_uniforms(3, 5000))
    reps = [ks_one_sample(np.sort(base ** e), lambda x: np.clip(x, 0, 1))
            for e in (1.0, 1.1, 1.3, 1.6)]
    stats_ = [r.statistic for r in reps]
    ps = [r.p_value for r in reps]
    assert stats_ == sorted(stats_)
    assert ps == sorted(ps, reverse=True)


def test_ks_requires_sorted_and_size():
    with pytest.raises(ValueError):
        ks_one_sample(np.array([0.5, 0.2, 0.7] * 10),
                      lambda x: np.clip(x, 0, 1))
    with pytest.raises(ValueError):
        ks_one_sample(np.array([0.1, 0.2]), lambda x: np.clip(x, 0, 1))
    with pytest.raises(ValueError):
        ks_two_sample(np.sort(_uniforms(1, 100)),
                      np.array([0.9, 0.1] * 20))


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_ks_rejects_non_finite_values(bad):
    # NaN compares False with everything, so it passed the order check
    # and gave a row with a NaN statistic
    values = np.append(np.sort(_uniforms(2, 50)), bad)
    with pytest.raises(ValueError, match="finite"):
        ks_one_sample(values, lambda x: np.clip(x, 0, 1))
    with pytest.raises(ValueError, match="finite"):
        ks_two_sample(np.sort(_uniforms(1, 100)), values)


def test_ks_two_sample_null_and_power():
    passes = 0
    for seed in range(100):
        a = np.sort(_uniforms(seed, 1500))
        b = np.sort(_uniforms(10_000 + seed, 1200))
        passes += ks_two_sample(a, b).passed
    assert passes >= 95
    a = np.sort(_uniforms(5, 20_000))
    b = np.sort(_uniforms(6, 20_000) ** 1.15)
    rep = ks_two_sample(a, b)
    assert not rep.passed


def _ks_two_sample_searchsorted(x, y):
    """The two-sample KS statistic and p-value from both empirical CDFs
    evaluated at every pooled value (the merge-free formula)."""
    n, m = x.size, y.size
    both = np.concatenate([x, y])
    cdf_x = np.searchsorted(x, both, side="right") / n
    cdf_y = np.searchsorted(y, both, side="right") / m
    d = float(np.max(np.abs(cdf_x - cdf_y)))
    return d, float(special.kolmogorov(np.sqrt(n * m / (n + m)) * d))


def _radii(dim, lam, n=None, count=3000, seed=4):
    params = ModelParams(c=1.0, lam=lam, dim=dim)
    return np.sort(simulate_ensemble(params, 1.0, count, seed,
                                     conditioning=n).u)


KS_PAIRS = {
    "continuous_unequal_sizes": lambda: (np.sort(_uniforms(1, 1500)),
                                         np.sort(_uniforms(2, 1234))),
    "ties_within_and_across": lambda: (
        np.sort(np.round(_uniforms(3, 2000), 2)),
        np.sort(np.round(_uniforms(4, 1700), 2))),
    "one_value_shared": lambda: (np.full(50, 0.5),
                                 np.sort(np.append(_uniforms(5, 40), 0.5))),
    "identical_samples": lambda: (np.sort(_uniforms(6, 300)),
                                  np.sort(_uniforms(6, 300))),
    "a_entirely_below_b": lambda: (np.sort(_uniforms(7, 200)),
                                   1.0 + np.sort(_uniforms(8, 120))),
    "b_entirely_below_a": lambda: (1.0 + np.sort(_uniforms(9, 120)),
                                   np.sort(_uniforms(10, 200))),
    # shell atoms at u = ct next to interior radii, and an all-shell sample
    "shell_atoms_dim3": lambda: (_radii(3, 1.0), _radii(3, 1.0, seed=5)),
    "shell_only_against_mixed": lambda: (_radii(3, 1.0, n=2, count=500),
                                         _radii(3, 2.0)),
    "signed_zeros": lambda: (np.array([-0.0] * 5 + [0.0] * 5 + [1.0] * 4),
                             np.array([0.0] * 3 + [-0.0] * 8 + [2.0])),
}


@pytest.mark.parametrize("case", list(KS_PAIRS))
def test_ks_two_sample_matches_searchsorted_formula(case):
    a, b = KS_PAIRS[case]()
    rep = ks_two_sample(a, b)
    assert (rep.statistic, rep.p_value) == _ks_two_sample_searchsorted(a, b)
    assert rep.sample_size == a.size + b.size


def test_chi_square_null_calibration():
    expected = {"a": 0.3, "b": 0.45, "c": 0.25}
    passes = 0
    for seed in range(100):
        u = _uniforms(50_000 + seed, 3000)
        counts = {"a": int(np.sum(u < 0.3)),
                  "b": int(np.sum((u >= 0.3) & (u < 0.75))),
                  "c": int(np.sum(u >= 0.75))}
        passes += chi_square_masses(counts, expected).passed
    assert passes >= 95


def test_chi_square_perfect_fit_is_zero():
    rep = chi_square_masses({"a": 300, "b": 700},
                            {"a": 0.3, "b": 0.7})
    assert rep.statistic == 0.0
    assert rep.passed
    assert rep.p_value == pytest.approx(1.0)


def test_chi_square_power_and_validation():
    rep = chi_square_masses({"a": 400, "b": 600}, {"a": 0.3, "b": 0.7})
    assert not rep.passed
    with pytest.raises(ValueError):
        chi_square_masses({"a": 2000}, {"a": 0.5, "b": 0.49})  # not a partition
    with pytest.raises(ValueError):
        chi_square_masses({"a": 2000, "b": 0}, {"a": 1.0, "b": 0.0})  # zero mass
    with pytest.raises(ValueError):
        chi_square_masses({"a": 200, "b": 300}, {"a": 0.4, "b": 0.6})  # n < 1000


def test_chi_square_missing_cells_count_as_zero():
    # observed {a: 3000}, expected (2997, 3): chi2 = 9/2997 + 9/3
    rep = chi_square_masses({"a": 3000}, {"a": 0.999, "b": 0.001})
    assert rep.statistic == pytest.approx(9.0 / 2997.0 + 3.0, rel=1e-12)


def test_chi_square_rejects_counts_in_cells_of_zero_mass():
    # 1% of the observations sit in a cell that `expected` gives no mass
    with pytest.raises(ValueError, match="zero expected mass"):
        chi_square_masses({"a": 495, "b": 495, "zz": 10}, {"a": .5, "b": .5})
    # an empty cell of that kind is harmless
    rep = chi_square_masses({"a": 500, "b": 500, "zz": 0}, {"a": .5, "b": .5})
    assert rep.statistic == 0.0 and rep.sample_size == 1000


def test_chi_square_rejects_negative_counts():
    # a negative count once shrank n: this gave n = 1000 and statistic 4000
    with pytest.raises(ValueError, match="count must be >= 0"):
        chi_square_masses({"a": 1500, "b": -500}, {"a": .5, "b": .5})


def test_chi_square_rejects_nan_mass():
    # NaN passes "sums to 1" and "<= 0" tests alike; it gave a NaN statistic
    with pytest.raises(ValueError, match="positive"):
        chi_square_masses({"a": 500, "b": 500}, {"a": math.nan, "b": .5})


def test_chi_square_p_value_is_scipy_stats_chi2_sf():
    # The p-value comes from scipy.special.chdtrc, so the package need
    # not import scipy.stats; it must equal chi2.sf bit for bit.
    for dof in (1, 2, 3, 5, 8, 13, 21, 34, 55):
        cells = [f"c{k}" for k in range(dof + 1)]
        expected = {cell: 1.0 / (dof + 1) for cell in cells}
        for shift in (0, 1, 3, 10, 30, 100, 300, 900):
            observed = {cell: 3000 + (-1) ** k * shift * (k % 3 + 1)
                        for k, cell in enumerate(cells)}
            rep = chi_square_masses(observed, expected)
            assert rep.detail == f"dof={dof}"
            assert rep.p_value == float(chi2.sf(rep.statistic, dof))


def test_moment_compare_null_calibration():
    passes = 0
    for seed in range(100):
        u = _uniforms(90_000 + seed, 4000)
        rep = moment_compare(u, 0.5, 1)
        passes += rep.passed
    assert passes >= 95


def test_moment_compare_detects_bias():
    u = _uniforms(11, 50_000) + 0.01
    rep = moment_compare(u, 0.5, 1)
    assert not rep.passed
    assert abs(rep.statistic) > 3


def test_moment_compare_higher_order():
    u = _uniforms(13, 100_000)
    rep = moment_compare(u, 1.0 / 3.0, 2)  # E U^2 of Uniform(0,1)
    assert rep.passed
    assert rep.sample_size == 100_000


def test_z_score_constant_sample_on_target_is_zero():
    # np.mean of these 1e5 identical values is one ulp low and np.std
    # is ~1.1e-16 rather than 0; rounding noise must not become a z-score
    const = np.full(100_000, math.cos(0.5))
    assert z_score(const, math.cos(0.5)) == 0.0
    rep = moment_compare(const, math.cos(0.5), 1)
    assert rep.passed and rep.statistic == 0.0
    assert z_score(np.zeros(50), 0.0) == 0.0


def test_z_score_constant_sample_off_target_is_infinite():
    # a constant sample hides no bias: any real offset scores +-inf
    const = np.full(100_000, math.cos(0.5))
    assert z_score(const, math.cos(0.5) + 1e-9) == -math.inf
    assert z_score(const, math.cos(0.5) - 1e-9) == math.inf
    rep = moment_compare(const, math.cos(0.5) + 1e-9, 1)
    assert not rep.passed and rep.statistic == -math.inf


def test_bound_report_passes_up_to_the_tolerance():
    rep = bound_report("b", 1e-8, 1e-8, detail="d", sample_size=5)
    assert rep == TestReport(name="b", statistic=1e-8, p_value=None,
                             tolerance=1e-8, passed=True, sample_size=5,
                             detail="d", blocking=True)
    assert not bound_report("b", 2e-8, 1e-8).passed
    assert not bound_report("b", math.nan, 1e-8).passed
