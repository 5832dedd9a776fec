"""Kernel g(u,t): derivative series, edge limits, analytic integrals."""

import math

import numpy as np
import pytest
from scipy import integrate, special

from cyclic_motion.bessel import (MAX_MOMENT, kernel_derivative,
                                  kernel_identity_residual, kernel_integral)
from cyclic_motion.model import ModelParams

P11 = ModelParams(c=1.0, lam=1.0, dim=2)
P_OTHER = ModelParams(c=0.7, lam=1.3, dim=2)

# central-difference step for derivative cross-checks
H = 1e-4
ALLOWED = {(0, 0), (1, 0), (2, 0), (3, 0), (0, 1), (0, 2), (1, 2)}


def g(params, t, u):
    return kernel_derivative(params, t, u)


def test_kernel_point_validation():
    for t, u in ((1.0, 1.5), (-1.0, 0.0), (1.0, -0.2)):
        with pytest.raises(ValueError):
            kernel_derivative(P11, t, u)
    # at the edge u = ct, P = 0 and xi = 0, so g = I_0(0) = 1 exactly
    assert kernel_derivative(P11, 1.0, 1.0) == 1.0


@pytest.mark.parametrize("t", [float("inf"), float("nan")])
def test_kernel_point_rejects_non_finite_t(t):
    with pytest.raises(ValueError, match="finite"):
        kernel_derivative(P11, t, 0.1)


def test_kernel_point_at_t_zero():
    assert kernel_derivative(P11, 0.0, 0.0) == 1.0


@pytest.mark.parametrize("order", [True, 1.0, np.float64(1)],
                         ids=["True", "1.0", "numpy-float"])
def test_orders_must_be_integers(order):
    # each of these once passed as order 1
    for call in (lambda: kernel_derivative(P11, 1.0, 0.5, order, 0),
                 lambda: kernel_derivative(P11, 1.0, 0.5, 0, order),
                 lambda: kernel_integral(P11, 1.0, 0, order)):
        with pytest.raises(ValueError, match="order must be an integer"):
            call()


@pytest.mark.parametrize("m", [True, 2.0, 2.5], ids=["True", "2.0", "2.5"])
def test_kernel_integral_takes_integer_m(m):
    with pytest.raises(ValueError, match="m must be an integer"):
        kernel_integral(P11, 1.0, m, 0)
    assert kernel_integral(P11, 1.0, np.int64(2), 1) == \
        kernel_integral(P11, 1.0, 2, 1)


def test_unsupported_orders_rejected():
    pt = P11, 1.0, 0.5
    for bad in ((4, 0), (0, 3), (1, 1), (2, 2), (2, 1), (3, 2)):
        with pytest.raises(ValueError):
            kernel_derivative(*pt, *bad)


def test_kernel_known_values():
    # g = I_0(xi); at (t,u) = (1, 0.5), xi = sqrt(0.75)
    assert g(P11, 1.0, 0.5) == pytest.approx(1.1964743299133564, rel=1e-14)
    # g_t at u=0: d/dt I_0(lam t) = lam I_1(lam t)
    assert kernel_derivative(P11, 1.0, 0.0, 1, 0) == pytest.approx(
        0.565159103992485, rel=1e-13)


@pytest.mark.parametrize("params", [P11, P_OTHER])
@pytest.mark.parametrize("t,u_frac", [(1.0, 0.0), (1.0, 0.4), (1.0, 0.9),
                                      (2.3, 0.6), (0.7, 0.25)])
def test_t_derivatives_match_finite_differences(params, t, u_frac):
    u = u_frac * params.c * t
    val = {k: kernel_derivative(params, t + k * H, u)
           for k in (-1, 0, 1)}
    d1 = (val[1] - val[-1]) / (2 * H)
    d2 = (val[1] - 2 * val[0] + val[-1]) / H ** 2
    # the 1/h^3 roundoff amplification needs a wider step
    h3 = 1e-3
    w = {k: kernel_derivative(params, t + k * h3, u)
         for k in (-2, -1, 1, 2)}
    d3 = (w[2] - 2 * w[1] + 2 * w[-1] - w[-2]) / (2 * h3 ** 3)
    pt = params, t, u
    assert kernel_derivative(*pt, 1, 0) == pytest.approx(d1, rel=1e-7)
    assert kernel_derivative(*pt, 2, 0) == pytest.approx(d2, rel=1e-5)
    assert kernel_derivative(*pt, 3, 0) == pytest.approx(d3, rel=1e-4)


@pytest.mark.parametrize("params", [P11, P_OTHER])
@pytest.mark.parametrize("t,u_frac", [(1.0, 0.3), (1.0, 0.7), (1.9, 0.5)])
def test_u_derivatives_match_finite_differences(params, t, u_frac):
    u = u_frac * params.c * t
    val = {k: kernel_derivative(params, t, u + k * H)
           for k in (-1, 0, 1)}
    d1 = (val[1] - val[-1]) / (2 * H)
    d2 = (val[1] - 2 * val[0] + val[-1]) / H ** 2
    pt = params, t, u
    assert kernel_derivative(*pt, 0, 1) == pytest.approx(d1, rel=1e-7)
    assert kernel_derivative(*pt, 0, 2) == pytest.approx(d2, rel=1e-5)
    # mixed derivative: difference g_uu in t
    guu = {k: kernel_derivative(params, t + k * H, u, 0, 2)
           for k in (-1, 1)}
    d_tuu = (guu[1] - guu[-1]) / (2 * H)
    assert kernel_derivative(*pt, 1, 2) == pytest.approx(d_tuu, rel=1e-6)


def test_edge_values_exact():
    # at u = ct only the leading series terms survive
    for lam, c, t in ((1.0, 1.0, 1.0), (1.3, 0.7, 0.8), (2.0, 0.5, 1.1)):
        params = ModelParams(c=c, lam=lam, dim=2)
        pt = params, t, c * t
        assert kernel_derivative(*pt, 0, 0) == pytest.approx(1.0, abs=1e-15)
        assert kernel_derivative(*pt, 1, 0) == pytest.approx(
            lam ** 2 * t / 2, rel=1e-14)
        assert kernel_derivative(*pt, 2, 0) == pytest.approx(
            lam ** 2 / 2 + lam ** 4 * t ** 2 / 8, rel=1e-14)
        assert kernel_derivative(*pt, 3, 0) == pytest.approx(
            3 / 8 * lam ** 4 * t + lam ** 6 * t ** 3 / 48, rel=1e-14)
        assert kernel_derivative(*pt, 0, 1) == pytest.approx(
            -lam ** 2 * t / (2 * c), rel=1e-14)


@pytest.mark.parametrize("t,u", [(1.0, 0.2), (1.0, 0.999), (2.5, 1.7),
                                 (0.4, 0.1)])
def test_kernel_identity_analytic(t, u):
    # g_tt = c^2 g_uu + lam^2 g, term-by-term in the series
    for params in (P11, P_OTHER):
        if u <= params.c * t:
            res = kernel_identity_residual(params, t, u)
            assert abs(res) < 1e-10


@pytest.mark.parametrize("lam_t", [1.0, 30.0, 500.0, 1e4, 1e6])
@pytest.mark.parametrize("c,t", [(1.0, 1.0), (3.0, 0.3)])
def test_kernel_identity_residual_is_rounding(c, t, lam_t):
    # Relative to |g_tt| + c^2 |g_uu| + lam^2 |g|, as the docstring states.
    # Past lam*t ~ 700 e^{xi} overflows, so there the residual is formed
    # from the scaled derivatives, as kernel_identity_residual forms it.
    params = ModelParams(c=c, lam=lam_t / t, dim=2)
    u = np.linspace(0.0, 0.999, 2001) * c * t
    scaled = lam_t > 500.0
    terms = np.array([1.0, -c * c, -params.lam ** 2])[:, None] * [
        kernel_derivative(params, t, u, *orders, scaled=scaled)
        for orders in ((2, 0), (0, 2), (0, 0))]
    residual = (terms.sum(axis=0) if scaled
                else kernel_identity_residual(params, t, u))
    assert np.max(np.abs(residual) / np.abs(terms).sum(axis=0)) < 1e-15


@pytest.mark.parametrize("orders", [(0, 2), (1, 2)])
def test_u_derivatives_cancel_where_they_cross_zero(orders):
    # At lam*t = 1e6 the value crosses zero near u = ct/sqrt(lam*t), where
    # its two terms cancel: 1.3e-10 and 1.6e-10 relative at 0.001 ct.
    mpmath = pytest.importorskip("mpmath")
    lam = 1e6
    params = ModelParams(c=1.0, lam=lam, dim=2)

    def g(t, u):  # the fixed scale e^{-lam} keeps the t-derivative exact
        return (mpmath.besseli(0, lam * mpmath.sqrt(t * t - u * u))
                * mpmath.exp(-lam))

    with mpmath.workdps(40):
        for frac, tol in ((0.001, 2e-10), (0.01, 1e-15), (0.5, 1e-15)):
            xi = lam * mpmath.sqrt(1 - mpmath.mpf(frac) ** 2)
            want = mpmath.diff(g, (1, frac), orders) * mpmath.exp(lam - xi)
            got = kernel_derivative(params, 1.0, frac, *orders, scaled=True)
            assert abs(float((got - want) / want)) <= tol, frac


def test_large_intensity_stays_finite_scaled_route():
    # xi = 800 * sqrt(1 - 0.09) ~ 763 exceeds the exp overflow threshold
    params = ModelParams(c=1.0, lam=800.0, dim=2)
    # the unscaled kernel overflows
    assert kernel_derivative(params, 1.0, 0.3) == math.inf
    # but the interior density built from the same sums stays finite
    from cyclic_motion.laws import density_u
    val = density_u(params, 1.0, 0.3)
    assert math.isfinite(val)
    assert val > 0


def test_unscaled_kernel_never_nan_at_large_intensity():
    # lam*t = 1000: e^{xi} overflows, once gave nan from inf - inf and 0 * inf
    params = ModelParams(c=1.0, lam=1000.0, dim=2)
    res = kernel_identity_residual(params, 1.0, 0.1)
    assert res == 0.0 or math.isinf(res)
    assert kernel_derivative(params, 1.0, 0.0, 0, 1) == 0.0
    u = np.array([0.0, 0.1, 0.5, 1.0])
    g_u = kernel_derivative(params, 1.0, u, 0, 1)
    assert g_u[0] == 0.0 and np.all(np.isneginf(g_u[1:3]))
    assert g_u[3] == pytest.approx(-params.lam ** 2 / 2, rel=1e-14)
    points = params, 1.0, u
    assert np.all(np.isposinf(kernel_derivative(*points)[:3]))
    assert not np.isnan(kernel_identity_residual(*points)).any()


def test_array_points_match_scalar_points():
    u = np.linspace(0.0, P_OTHER.c * 1.3, 9)
    point = P_OTHER, 1.3, u
    for orders in sorted(ALLOWED):
        vals = kernel_derivative(*point, *orders)
        assert vals.shape == u.shape
        for ui, v in zip(u, vals):
            assert kernel_derivative(P_OTHER, 1.3, float(ui),
                                     *orders) == pytest.approx(v, rel=1e-14)


@pytest.mark.parametrize("t_order", [0, 1, 2, 3])
def test_kernel_integral_overflows_to_inf(t_order):
    params = ModelParams(c=1.0, lam=800.0, dim=2)
    for m in (0, 2) if t_order < 3 else (0,):
        assert kernel_integral(params, 1.0, m, t_order) == math.inf


@pytest.mark.parametrize("m", [0, 1, 2, 3, 4, 5, 6])
@pytest.mark.parametrize("t_order", [0, 1, 2])
@pytest.mark.parametrize("lam,c,t", [(1.0, 1.0, 1.0), (1.3, 0.7, 1.1)])
def test_kernel_integral_vs_quadrature(m, t_order, lam, c, t):
    params = ModelParams(c=c, lam=lam, dim=2)
    ct = c * t

    def f(u):
        return u ** m * kernel_derivative(params, t, u, t_order)

    want, _ = integrate.quad(f, 0.0, ct, epsabs=1e-12, epsrel=1e-12,
                             limit=200)
    got = kernel_integral(params, t, m, t_order)
    assert got == pytest.approx(want, rel=1e-9, abs=1e-11)


@pytest.mark.parametrize("lam,c,t", [(1.0, 1.0, 1.0), (1.3, 0.7, 1.1)])
def test_kernel_integral_third_t_derivative(lam, c, t):
    params = ModelParams(c=c, lam=lam, dim=2)

    def f(u):
        return kernel_derivative(params, t, u, 3)

    want, _ = integrate.quad(f, 0.0, c * t, epsabs=1e-12, epsrel=1e-12,
                             limit=200)
    got = kernel_integral(params, t, 0, 3)
    assert got == pytest.approx(want, rel=1e-9, abs=1e-11)


def test_kernel_integral_frozen_values():
    # m=0, t_order=0 at lam=c=t=1: int_0^1 I_0(sqrt(1-u^2)) du
    # equals sqrt(pi/2) * Gamma(1/2)-form = sinh-type closed value
    got = kernel_integral(P11, 1.0, 0, 0)
    assert got == pytest.approx(1.1752011936438014, rel=1e-13)  # sinh(1)
    got1 = kernel_integral(P11, 1.0, 0, 1)
    assert got1 == pytest.approx(math.cosh(1.0) - 1.0, rel=1e-13)


def test_kernel_integral_large_m_in_log_space():
    # lam*t = 800, m = 300: (2c^2t/lam)^151 underflows and I_151.5(800)
    # overflows, but the integral is ~1.6e209.  Check it against quadrature
    # of u^m I_0(xi) / value, with every factor in log space.
    params = ModelParams(c=1.0, lam=800.0, dim=2)
    m = 300
    got = kernel_integral(params, 1.0, m, 0)
    assert math.isfinite(got)
    log_got = math.log(got)

    def ratio(u):
        xi = 800.0 * math.sqrt(max(0.0, (1.0 - u) * (1.0 + u)))
        return math.exp(m * math.log(u) + math.log(special.ive(0, xi)) + xi
                        - log_got) if u > 0 else 0.0

    one, _ = integrate.quad(ratio, 0.0, 1.0, points=[0.9, 0.99],
                            epsabs=1e-12, epsrel=1e-12, limit=400)
    assert one == pytest.approx(1.0, rel=1e-9)
    for t_order in (1, 2):
        assert math.isfinite(kernel_integral(params, 1.0, m, t_order))


def test_kernel_integral_m_range():
    # lam*t = 1, m = 2000 used to overflow Gamma(1000.5); m is capped
    with pytest.raises(ValueError):
        kernel_integral(P11, 1.0, 2000, 0)
    with pytest.raises(ValueError):
        kernel_integral(P11, 1.0, MAX_MOMENT + 1, 1)
    # at the cap: ~ (ct)^(m+1)/(m+1) for small lam*t, finite or inf beyond
    m = MAX_MOMENT
    assert kernel_integral(P11, 1.0, m, 0) == pytest.approx(
        1.0 / (m + 1), rel=1e-3)
    for lam in (1e-8, 1.0, 1e3, 1e5, 1e8):
        params = ModelParams(c=1.0, lam=lam, dim=2)
        for t_order in (0, 1, 2):
            value = kernel_integral(params, 1.0, m, t_order)
            assert not math.isnan(value) and value >= 0.0


def test_kernel_integral_validation():
    with pytest.raises(ValueError):
        kernel_integral(P11, 1.0, -1, 0)
    with pytest.raises(ValueError):
        kernel_integral(P11, 1.0, 0, 4)
    with pytest.raises(ValueError):
        kernel_integral(P11, 1.0, 2, 3)  # t_order=3 needs m=0
    with pytest.raises(ValueError):
        kernel_integral(P11, 0.0, 0, 0)
