"""The kernel's Bessel ratios against scipy and mpmath.

`bessel.scaled_series` returns the ratios
R_nu = e^{-xi} sum_k (xi/2)^{2k} / (k! (k+nu)!) for nu = 0..3, so
(xi/2)^nu R_nu = ive(nu, xi).  At the point u = 0, c = t = 1 its
argument is xi = lam, and each order is checked against scipy's AMOS
routines (`scipy.special.iv` and `ive`; the package's
`bessel_i_scaled` is `ive`) and, independently, against mpmath.  The
other orders (half-integers and 4, 5.5) check `bessel._term`, the 0F1
ratio F_nu = Gamma(nu+1) e^{xi} R_nu that `kernel_integral` evaluates
at p = (m+1)/2.  The kernel sums B_0..B_3 are the orders 0..3:
B_j (P/r)^{j/2} = ive(j, xi) with r = lam^2/(4c^2).
"""

import math

import numpy as np
import pytest
from scipy import special

from cyclic_motion.bessel import (_SMALL_XI, _kernel_sums_scaled, _term,
                                  bessel_i_scaled, kernel_derivative,
                                  kernel_integral, scaled_series)
from cyclic_motion.model import ModelParams

ORDERS = [0, 0.5, 1, 1.5, 2, 2.5, 3, 3.5, 4, 5.5]
SERIES_ORDERS = range(4)  # the orders `scaled_series` returns
XS = [1e-8, 0.25, 1.0, 5.0, 30.0, 200.0, 700.0]
# From the edge xi = 0 through the small-argument series to xi = 1e5.
XI_GRID = [0.0, 1e-8, 0.25, 1.0, 1.999, 2.0, 5.0, 30.0, 200.0, 679.5,
           680.0, 680.5, 700.0, 2000.0, 12345.6, 1e5]


def ratio(nu, x, lam=None, u=0.0):
    """(R_nu, xi) at xi = x: `scaled_series` for nu in 0..3, else `_term`.

    By default the point is u = 0, lam = x; any (lam, u) with
    lam * sqrt(1 - u^2) = x reaches the same xi.
    """
    if nu not in SERIES_ORDERS:
        sign, log = _term(-math.lgamma(nu + 1.0), nu, x, 1.0, scaled=True)
        return sign * math.exp(log), x
    ratios, xi = scaled_series(x if lam is None else lam, 1.0, 1.0, u)
    return float(ratios[nu]), float(xi)


def series_i_scaled(nu, x, lam=None, u=0.0):
    """e^{-x} I_nu(x) from the ratio R_nu at xi = x."""
    r, xi = ratio(nu, x, lam, u)
    return r * (0.5 * xi) ** nu


@pytest.mark.parametrize("nu", ORDERS)
@pytest.mark.parametrize("x", XS)
def test_bessel_i_against_scipy(nu, x):
    want = special.iv(nu, x)
    got = series_i_scaled(nu, x) * math.exp(x)
    assert got == pytest.approx(want, rel=1e-12, abs=0)


@pytest.mark.parametrize("nu", ORDERS)
@pytest.mark.parametrize("x", XS + [2000.0, 1e5])
def test_bessel_i_scaled_against_scipy(nu, x):
    want = bessel_i_scaled(nu, x)
    assert want == special.ive(nu, x)
    assert series_i_scaled(nu, x) == pytest.approx(want, rel=1e-12, abs=0)


@pytest.mark.parametrize("nu", ORDERS)
def test_scaled_consistency(nu):
    for x in (0.5, 3.0, 50.0):
        if nu in SERIES_ORDERS:
            # the ratios depend on (lam, c, t, u) only through xi
            other = series_i_scaled(nu, x, lam=2.0 * x, u=math.sqrt(0.75))
            assert other == pytest.approx(series_i_scaled(nu, x), rel=1e-13)
            continue
        # kernel_integral's F_p at p = nu depends on (lam, c, t) only
        # through lam*t, times the power (ct)^{m+1}
        m = round(2 * nu - 1)
        one = kernel_integral(ModelParams(c=1.0, lam=x, dim=2), 1.0, m)
        slow = ModelParams(c=2.0, lam=0.5 * x, dim=2)
        other = kernel_integral(slow, 2.0, m)
        assert other == pytest.approx(4.0 ** (m + 1) * one, rel=1e-13)
        assert one == pytest.approx(math.gamma(nu + 1.0) * math.exp(x)
                                    * ratio(nu, x)[0] / (m + 1), rel=1e-13)


def test_x_zero_values():
    # at xi = 0 (the edge u = ct) only the k = 0 term survives
    edge = ModelParams(c=1.0, lam=2.0, dim=2), 1.0, 1.0
    assert _kernel_sums_scaled(*edge) == (1.0, 1.0, 0.5, 1.0 / 6.0, 0.0)
    ratios, _ = scaled_series(1.0, 1.0, 1.0, 1.0)
    assert ratios == [1.0, 1.0, 0.5, 1.0 / 6.0]
    for nu in ORDERS:
        assert ratio(nu, 0.0)[0] == pytest.approx(1.0 / math.gamma(nu + 1.0),
                                                  rel=1e-15)
    assert series_i_scaled(0, 0.0) == 1.0
    assert series_i_scaled(1, 0.0) == 0.0
    assert series_i_scaled(0.5, 0.0) == 0.0


def test_negative_x_rejected():
    # xi is real only on [0, ct]; one bad point rejects the whole array
    for u in (-0.1, 1.5, [0.2, 1.5], [float("nan")]):
        with pytest.raises(ValueError, match="outside"):
            scaled_series(1.0, 1.0, 1.0, u)
    with pytest.raises(ValueError):
        kernel_derivative(ModelParams(c=1.0, lam=1.0, dim=2), 1.0,
                          np.array([0.5, -0.2]))


def test_overflow_to_inf():
    point = ModelParams(c=1.0, lam=800.0, dim=2), 1.0, 0.0
    assert kernel_derivative(*point) == math.inf
    scaled = kernel_derivative(*point, scaled=True)
    assert scaled == pytest.approx(special.ive(0, 800.0), rel=1e-14)


def test_half_integer_closed_forms():
    # `_term`'s F_{1/2} = sinh(x)/x and F_{-1/2} = cosh(x)
    for x in (0.3, 2.0, 10.0):
        assert series_i_scaled(0.5, x) == pytest.approx(
            (1.0 - math.exp(-2 * x)) / math.sqrt(2 * math.pi * x), rel=1e-14)
        assert series_i_scaled(-0.5, x) == pytest.approx(
            (1.0 + math.exp(-2 * x)) / math.sqrt(2 * math.pi * x), rel=1e-14)


@pytest.mark.parametrize("x", [0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 15.0, 30.0])
@pytest.mark.parametrize("nu", [0.5, 1, 1.5, 2, 2.5, 3, 3.5])
def test_three_term_recurrence(nu, x):
    # I_{nu-1}(x) - I_{nu+1}(x) = (2 nu / x) I_nu(x), scaled by e^{-x}
    lhs = series_i_scaled(nu - 1, x) - series_i_scaled(nu + 1, x)
    rhs = 2 * nu / x * series_i_scaled(nu, x)
    assert lhs == pytest.approx(rhs, rel=1e-9)


def test_scaled_large_argument_asymptote():
    # ive(nu, x) ~ 1/sqrt(2 pi x) for large x, independent of nu
    for nu in (0, 1, 2.5):
        x = 1e5
        assert series_i_scaled(nu, x) == pytest.approx(
            1.0 / math.sqrt(2 * math.pi * x), rel=1e-2)


def test_known_values():
    assert series_i_scaled(0, 1.0) * math.e == pytest.approx(
        1.2660658777520082, rel=1e-15)
    assert series_i_scaled(1, 1.0) * math.e == pytest.approx(
        0.565159103992485, rel=1e-15)
    x = math.sqrt(0.75)
    assert series_i_scaled(0, x) * math.exp(x) == pytest.approx(
        1.1964743299133564, rel=1e-14)


@pytest.mark.parametrize("xi", [0.0, 1e-300, 1e-12,
                                math.nextafter(_SMALL_XI, 0.0), _SMALL_XI]
                         + [10.0 ** k for k in range(-3, 9)])
def test_ratios_against_mpmath(xi):
    # R_nu = e^{-xi} 0F1(; nu+1; xi^2/4) / nu! at 40 digits
    mpmath = pytest.importorskip("mpmath")
    ratios, got_xi = scaled_series(xi, 1.0, 1.0, 0.0)
    assert got_xi == xi
    with mpmath.workdps(40):
        x = mpmath.mpf(xi)
        for nu, got in enumerate(ratios):
            want = (mpmath.hyp0f1(nu + 1, x * x / 4) * mpmath.exp(-x)
                    / mpmath.factorial(nu))
            assert abs(float((got - want) / want)) <= 1e-14, nu


def kernel_sums_vs_ive(lam, u):
    """(B_j (P/r)^{j/2}, ive(j, xi)) for j = 0..3 at c = t = 1."""
    *sums, xi = _kernel_sums_scaled(ModelParams(c=1.0, lam=lam, dim=2),
                                    1.0, u)
    root = 2.0 * xi / (lam * lam)  # sqrt(P / r)
    return ([b * root ** j for j, b in enumerate(sums)],
            [special.ive(j, xi) for j in range(4)])


@pytest.mark.parametrize("xi", XI_GRID)
def test_kernel_sums_match_scipy(xi):
    # xi = lam at u = 0; xi = 0 needs the edge u = ct instead
    lam, u = (xi, 0.0) if xi else (1.0, 1.0)
    got, want = kernel_sums_vs_ive(lam, u)
    for g, w in zip(got, want):
        assert g == pytest.approx(w, rel=1e-12, abs=0)


def test_kernel_sums_grid_as_one_array_call():
    lam = max(XI_GRID)
    u = np.sqrt(1.0 - (np.array(XI_GRID) / lam) ** 2)
    got, want = kernel_sums_vs_ive(lam, u)
    for g, w in zip(got, want):
        assert g.shape == u.shape
        np.testing.assert_allclose(g, w, rtol=1e-12, atol=0)
    # the array call equals one call per point
    for i, ui in enumerate(u):
        one, _ = kernel_sums_vs_ive(lam, float(ui))
        for g, o in zip(got, one):
            assert g[i] == pytest.approx(float(o), rel=1e-14, abs=0)
