"""Radius laws: frozen oracle values, identities, and consistency."""

import math
from fractions import Fraction

import numpy as np
import pytest
from scipy import integrate, special

from cyclic_motion import bessel, laws, simulate, stats, verify
from cyclic_motion.bessel import MAX_MOMENT, kernel_derivative
from cyclic_motion.laws import (ConditionalLaw, SingularStratumError, ac_mass,
                                cdf_u, conditional_mean_u, density_u,
                                density_u_closed_form,
                                density_u_from_coefficients, mean_u,
                                mixture_density, moment_u, singular_masses)
from cyclic_motion.model import ModelParams

P2 = ModelParams(c=1.0, lam=1.0, dim=2)
P3 = ModelParams(c=1.0, lam=1.0, dim=3)
P2B = ModelParams(c=0.5, lam=2.0, dim=2)  # second parameter set


# --- frozen values (independent quadrature/series oracles) ---------------

def test_density_frozen_values_dim2():
    assert density_u(P2, 1.0, 0.0) == pytest.approx(
        0.2578491922439321, rel=1e-13)
    assert density_u(P2, 1.0, 0.5) == pytest.approx(
        0.2628904518680348, rel=1e-13)
    assert density_u(P2, 1.0, 0.9) == pytest.approx(
        0.2729014352637706, rel=1e-13)
    assert density_u(P2B, 2.0, 0.3) == pytest.approx(
        1.1008485962505963, rel=1e-13)


def test_density_frozen_values_dim3():
    assert density_u(P3, 1.0, 0.5) == pytest.approx(
        0.07521188030889374, rel=1e-13)


def test_density_edge_values():
    # u = ct limits: e^{-lt}(lam^2 t/2 + lam^3 t^2/4)/c in the plane,
    # e^{-lt} lam^3 t^2 (1 + lam t/3)/(4c) in space
    assert density_u(P2, 1.0, 1.0) == pytest.approx(
        math.exp(-1.0) * 0.75, rel=1e-14)
    assert density_u(P3, 1.0, 1.0) == pytest.approx(
        math.exp(-1.0) / 3.0, rel=1e-14)
    lam, c, t = P2B.lam, P2B.c, 2.0
    want = math.exp(-lam * t) * (lam ** 2 * t / 2
                                 + lam ** 3 * t ** 2 / 4) / c
    assert density_u(P2B, t, c * t) == pytest.approx(want, rel=1e-13)


def test_density_outside_support_zero():
    assert density_u(P2, 1.0, 1.5) == 0.0
    assert density_u(P3, 1.0, -0.1) == 0.0
    for call in (density_u, density_u_from_coefficients,
                 lambda p, t, u: ConditionalLaw(p, 3, t).density(u),
                 lambda p, t, u: ConditionalLaw(p, 3, t).cdf(u), cdf_u):
        with pytest.raises(ValueError, match="NaN"):
            call(P2, 1.0, np.array([0.5, float("nan")]))
        with pytest.raises(ValueError, match="NaN"):
            call(P2, 1.0, float("nan"))


def test_density_validation():
    with pytest.raises(ValueError):
        density_u(P2, 0.0, 0.5)
    with pytest.raises(ValueError):
        density_u(ModelParams(c=1.0, lam=1.0, dim=4), 1.0, 0.5)


@pytest.mark.parametrize("t", [float("nan"), float("inf")])
def test_non_finite_horizon_rejected(t):
    for call in (lambda: density_u(P2, t, 0.5),
                 lambda: density_u_from_coefficients(P2, t, 0.5),
                 lambda: density_u_closed_form(P2, t, 0.5),
                 lambda: ConditionalLaw(P2, 3, t),
                 lambda: cdf_u(P2, t, 0.5),
                 lambda: singular_masses(P2, t),
                 lambda: mean_u(P2, t),
                 lambda: moment_u(P2, 2, t)):
        with pytest.raises(ValueError, match="finite and > 0"):
            call()


@pytest.mark.parametrize("dim, want", [(2, 0.1702376851), (3, None)])
def test_coefficient_form_finite_at_large_lambda_t(dim, want):
    # the unscaled kernel derivatives overflow past lam*t ~ 709; the
    # coefficient form must stay finite and agree with the series form
    params = ModelParams(c=1.0, lam=1000.0, dim=dim)
    for u in (0.0, 0.1, 0.5, 0.999):
        val = density_u_from_coefficients(params, 1.0, u)
        assert math.isfinite(val)
        assert val == pytest.approx(density_u(params, 1.0, u), rel=1e-9)
    if want is not None:
        assert density_u_from_coefficients(params, 1.0, 0.1) == \
            pytest.approx(want, rel=1e-9)


@pytest.mark.parametrize("params,t", [(P2, 1.0), (P2B, 2.0), (P3, 1.0),
                                      (ModelParams(0.5, 2.0, 3), 2.0)])
def test_representations_agree(params, t):
    ct = params.c * t
    for frac in (0.0, 0.1, 0.37, 0.71, 0.95, 0.999, 1.0):
        u = frac * ct
        a = density_u(params, t, u)
        b = density_u_from_coefficients(params, t, u)
        assert b == pytest.approx(a, rel=1e-11, abs=1e-14)
        if params.dim == 2 and frac < 1.0:
            cf = density_u_closed_form(params, t, u)
            assert cf == pytest.approx(a, rel=1e-11, abs=1e-14)


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("lam", [1.0, 100.0, 1000.0])
def test_coefficient_form_is_one_kernel_pass(dim, lam, monkeypatch):
    # one scaled_series call gives the same bits as one kernel_derivative
    # per t-order, each of which makes its own call
    c, t = 1.0, 1.0
    params = ModelParams(c=c, lam=lam, dim=dim)
    coeffs = {2: (-lam, 1.0, 2.0 / lam),
              3: (-lam, -3.0, 2.0 / lam, 4.0 / lam ** 2)}[dim]
    u = np.linspace(0.0, c * t, 1001)
    xi = lam / c * np.sqrt(np.maximum(0.0, (c * t - u) * (c * t + u)))
    want = np.exp(xi - lam * t) / c * sum(
        a * kernel_derivative(params, t, u, t_order=j, scaled=True)
        for j, a in enumerate(coeffs))
    calls = []
    series = bessel.scaled_series
    monkeypatch.setattr(bessel, "scaled_series",
                        lambda *a, **k: calls.append(a) or series(*a, **k))
    got = density_u_from_coefficients(params, t, u)
    assert len(calls) == 1
    assert np.array_equal(got, want)


def test_closed_form_domain():
    with pytest.raises(ValueError):
        density_u_closed_form(P2, 1.0, 1.0)  # 0/0 at the edge
    with pytest.raises(ValueError):
        density_u_closed_form(P2, 1.0, 1.2)
    with pytest.raises(ValueError):
        density_u_closed_form(P3, 1.0, 0.5)


@pytest.mark.parametrize("params,t", [(P2, 0.5), (P2, 1.0), (P2, 2.0),
                                      (P2, 5.0), (P3, 0.5), (P3, 1.0),
                                      (P3, 2.0), (P3, 5.0)])
def test_normalization(params, t):
    total = cdf_u(params, t, params.c * t)
    assert total == pytest.approx(ac_mass(params, t), abs=1e-8)


def test_singular_masses_and_ac_mass():
    ms = singular_masses(P3, 1.0)
    by_name = {m.stratum: m for m in ms}
    e1 = math.exp(-1.0)
    assert by_name["vertex"].mass == pytest.approx(e1, rel=1e-15)
    assert by_name["vertex"].sites == 6
    assert by_name["vertex"].each == pytest.approx(e1 / 6, rel=1e-15)
    assert by_name["face1"].mass == pytest.approx(e1, rel=1e-15)
    assert by_name["face2"].mass == pytest.approx(e1 / 2, rel=1e-15)
    assert ac_mass(P3, 1.0) == pytest.approx(1 - 2.5 * e1, rel=1e-14)
    # dim 2
    assert ac_mass(P2, 1.0) == pytest.approx(1 - 2 * e1, rel=1e-14)
    with pytest.raises(ValueError):
        singular_masses(P2, 0.0)


@pytest.mark.parametrize("dim", range(1, 9))
def test_shell_masses_and_ac_mass_sum_to_one_in_every_dim(dim):
    # P(N=k) for k < dim and the tail P(N >= dim) hold in any dim
    for lt in (1e-3, 0.5, 1.0, 5.0, 100.0):
        params = ModelParams(c=1.0, lam=lt, dim=dim)
        masses = singular_masses(params, 1.0)
        assert [m.stratum for m in masses] == \
            ["vertex"] + [f"face{k}" for k in range(1, dim)]
        total = sum(m.mass for m in masses) + ac_mass(params, 1.0)
        assert abs(total - 1.0) <= 1e-15, (lt, total)


def test_shell_masses_match_simulated_strata_dim5():
    # 1e5 paths at lam*t = 1: vertex/face1..4 counts 36,671 / 36,998 /
    # 18,268 / 6,151 / 1,560 against Poisson 36,788 / 36,788 / 18,394 /
    # 6,131 / 1,533
    params = ModelParams(c=1.0, lam=1.0, dim=5)
    counts = simulate.simulate_ensemble(params, 1.0, 100_000, 3
                                        ).stratum_counts()
    expected = {m.stratum: m.mass for m in singular_masses(params, 1.0)}
    expected["interior"] = ac_mass(params, 1.0)
    rep = stats.chi_square_masses(counts, expected, name="strata_dim5")
    assert rep.passed, rep


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("lt", [1e-5, 1e-3, 1.0])
def test_ac_mass_is_the_poisson_tail_at_small_lambda_t(dim, lt):
    # e^{-x} sum_{k>=dim} x^k/k! has positive terms; 1 - the shell masses
    # cancels (a third of the value in dim 3 at lam*t = 1e-5)
    exact = math.exp(-lt) * math.fsum(lt ** k / math.factorial(k)
                                      for k in range(dim, dim + 40))
    params = ModelParams(c=1.0, lam=lt, dim=dim)
    assert ac_mass(params, 1.0) == pytest.approx(exact, rel=1e-14, abs=0.0)


@pytest.mark.parametrize("params,t", [(P2, 0.5), (P2, 2.0), (P3, 0.5),
                                      (P3, 2.0)])
def test_mixture_identity(params, t):
    for frac in (0.1, 0.45, 0.9):
        u = frac * params.c * t
        assert mixture_density(params, t, u) == pytest.approx(
            density_u(params, t, u), abs=1e-10)


@pytest.mark.parametrize("dim", [2, 3])
def test_mixture_identity_at_large_lambda_t(dim):
    # lam*t = 100: the Poisson mass sits near n = 100, far past n = 60
    params = ModelParams(c=1.0, lam=100.0, dim=dim)
    u = np.array([0.05, 0.2, 0.5, 0.8, 0.95])
    got = mixture_density(params, 1.0, u)
    np.testing.assert_allclose(got, density_u(params, 1.0, u), rtol=1e-9)
    assert mixture_density(params, 1.0, 0.5) == pytest.approx(
        density_u(params, 1.0, 0.5), rel=1e-9)


def test_mixture_density_without_terms_is_float_zero():
    # lam*t = 1e-7: the Poisson table ends at n = 2 < dim = 3
    params = ModelParams(c=1.0, lam=1e-7, dim=3)
    got = mixture_density(params, 1.0, np.array([0.1, 0.2]))
    assert isinstance(got, np.ndarray) and got.dtype == float
    assert got.shape == (2,) and not got.any()
    scalar = mixture_density(params, 1.0, 0.1)
    assert isinstance(scalar, float) and scalar == 0.0


@pytest.mark.parametrize("dim", [4, 5, 8])
def test_mixtures_reject_dims_above_3_without_terms(dim):
    # lam*t = 1e-7: the Poisson table ends before n = dim, yet the dim
    # is refused as it is at lam*t = 1
    for lam in (1e-7, 1.0):
        params = ModelParams(c=1.0, lam=lam, dim=dim)
        for law in (cdf_u, mixture_density):
            for u in (0.1, np.array([0.1, 0.5])):
                with pytest.raises(ValueError, match="dims 1, 2, 3"):
                    law(params, 1.0, u)


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("lam", [1.0, 100.0, 1000.0])
def test_array_calls_match_scalar_calls(dim, lam):
    params = ModelParams(c=1.0, lam=lam, dim=dim)
    u = np.linspace(0.0, 1.0, 1001)
    forms = [lambda x: density_u(params, 1.0, x),
             lambda x: density_u_from_coefficients(params, 1.0, x),
             ConditionalLaw(params, 5, 1.0).density]
    grids = [u, u, u]
    if dim == 2:
        forms.append(lambda x: density_u_closed_form(params, 1.0, x))
        grids.append(u[:-1])  # 0/0 at the edge
    for form, grid in zip(forms, grids):
        vals = form(grid)
        assert vals.shape == grid.shape
        one = [form(float(x)) for x in grid]
        assert all(isinstance(v, float) for v in one)
        np.testing.assert_allclose(vals, one, rtol=1e-14, atol=0)
    # points off the support are 0 in an array as they are one by one
    off = np.array([-0.5, 0.3, 1.5])
    np.testing.assert_array_equal(
        density_u(params, 1.0, off) == 0.0, [True, False, True])


# --- conditional laws ------------------------------------------------------

def test_conditional_below_dim_raises():
    for params, n in ((P2, 0), (P2, 1), (P3, 2),
                      (ModelParams(1.0, 1.0, 1), 0)):
        with pytest.raises(SingularStratumError):
            ConditionalLaw(params, n, 1.0)


@pytest.mark.parametrize("call", [
    lambda: ConditionalLaw(P2, 3.5, 1.0),
    lambda: ConditionalLaw(ModelParams(1.0, 1.0, 1), True, 1.0),
    lambda: ConditionalLaw(P3, 4.0, 1.0),
    lambda: conditional_mean_u(3.5),
    lambda: conditional_mean_u(np.float64(5)),
], ids=["law-3.5", "law-True", "density-4.0", "mean-3.5", "mean-5.0"])
def test_conditional_n_must_be_an_integer(call):
    # these raised IndexError or TypeError, or built the n = 1 law
    with pytest.raises(ValueError, match="n must be an integer"):
        call()


def test_numpy_integer_n_matches_int_n():
    # a numpy n once overflowed 2 ** (2k+1) in the conditional means
    assert conditional_mean_u(np.int64(201)) == conditional_mean_u(201)
    v = np.linspace(0.0, 1.0, 7)
    assert np.array_equal(ConditionalLaw(P3, np.int64(6), 1.0).cdf(v),
                          ConditionalLaw(P3, 6, 1.0).cdf(v))


def test_conditional_special_values():
    # planar n=2: uniform 1/(ct)
    assert ConditionalLaw(P2, 2, 1.0).density(0.3) == pytest.approx(1.0)
    assert ConditionalLaw(ModelParams(2.0, 1.0, 2), 2, 1.0).density(
        0.3) == pytest.approx(0.5)
    # planar n=3 at u=0: 3!/((0)!(2)! 4 (ct)^3) * (ct^2 + u^2) = 0.75
    assert ConditionalLaw(P2, 3, 1.0).density(0.0) == pytest.approx(0.75)
    # spatial n=4 at u=0: 4!/(3! 0! 8) * 1 = 0.5
    assert ConditionalLaw(P3, 4, 1.0).density(0.0) == pytest.approx(0.5)
    # spatial odd laws vanish... n=5 at the edge u=ct keeps P^1 factor -> 0
    assert ConditionalLaw(P3, 5, 1.0).density(1.0) == 0.0
    # telegraph n=2 at u=0: 2!/(0!1!2) = 1
    assert ConditionalLaw(ModelParams(1.0, 1.0, 1), 2, 1.0).density(
        0.0) == pytest.approx(1.0)
    # outside the support
    assert ConditionalLaw(P2, 4, 1.0).density(1.2) == 0.0


@pytest.mark.parametrize("dim,n", [(1, 1), (1, 2), (1, 5), (2, 2), (2, 3),
                                   (2, 6), (3, 3), (3, 4), (3, 7)])
def test_conditional_density_integrates_to_one(dim, n):
    params = ModelParams(c=0.8, lam=1.0, dim=dim)
    t = 1.3
    val, _ = integrate.quad(
        ConditionalLaw(params, n, t).density, 0.0,
        params.c * t, epsabs=1e-12, epsrel=1e-12, limit=200)
    assert val == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("dim,n", [(1, 2), (2, 3), (2, 4), (3, 3), (3, 6)])
def test_conditional_cdf_matches_quadrature(dim, n):
    params = ModelParams(c=0.8, lam=1.0, dim=dim)
    t = 1.3
    law = ConditionalLaw(params, n, t)
    for frac in (0.2, 0.55, 0.83):
        u = frac * params.c * t
        want, _ = integrate.quad(law.density, 0.0, u, epsabs=1e-12,
                                 epsrel=1e-12)
        assert law.cdf(u) == pytest.approx(want, abs=1e-12)


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("n", [3, 6, 100, 400, 2000])
def test_conditional_cdf_matches_betainc(dim, n):
    params = ModelParams(c=0.8, lam=1.0, dim=dim)
    t = 1.3
    ct = params.c * t
    law = ConditionalLaw(params, n, t)
    j, b = laws._cond_shape(params, n)
    w = b / (2 * j + 3)
    v = np.linspace(0.0, 1.0, 10_001)
    want = (special.betainc(0.5, j + 1, v * v)
            + w * special.betainc(1.5, j + 1, v * v)) / (1 + w)
    assert np.max(np.abs(law.cdf(v * ct) - want)) < 1e-12
    assert law.cdf(ct) == 1.0


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("lt", [0.5, 1.0, 2.0, 5.0, 100.0])
def test_cdf_u_matches_quadrature(dim, lt):
    params = ModelParams(c=1.0, lam=lt, dim=dim)
    us = np.array([0.0, 0.1, 0.4, 0.75, 0.95, 1.0])
    got = cdf_u(params, 1.0, us)
    for u, g in zip(us, got):
        want, _ = integrate.quad(lambda x: density_u(params, 1.0, x), 0.0, u,
                                 epsabs=1e-12, epsrel=1e-12, limit=200)
        assert g == pytest.approx(want, abs=1e-10)


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("lt", [1.0, 100.0, 1000.0])
def test_cdf_u_is_the_per_term_mixture(dim, lt):
    # one summed polynomial against the P(N=n)-weighted conditional CDFs
    params = ModelParams(c=1.0, lam=lt, dim=dim)
    us = np.linspace(-0.1, 1.1, 1001)
    want = sum(weight * ConditionalLaw(params, n, 1.0).cdf(us)
               for n, weight in zip(*laws._poisson_terms(params, 1.0)))
    got = cdf_u(params, 1.0, us)
    assert np.max(np.abs(got - want)) < 1e-14
    assert cdf_u(params, 1.0, float(us[417])) == got[417]


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("lt", [1.0, 100.0, 1000.0])
def test_mixture_density_is_the_per_term_mixture(dim, lt):
    # one set of summed rows against the P(N=n)-weighted conditional
    # densities, each a row set of its own
    params = ModelParams(c=1.0, lam=lt, dim=dim)
    us = np.linspace(-0.1, 1.1, 1001)
    want = sum(weight * ConditionalLaw(params, n, 1.0).density(us)
               for n, weight in zip(*laws._poisson_terms(params, 1.0)))
    got = mixture_density(params, 1.0, us)
    big = want > 1e-250
    np.testing.assert_allclose(got[big], want[big], rtol=1e-13, atol=0)
    assert np.all(got[~big] < 1e-240)
    assert mixture_density(params, 1.0, float(us[417])) == got[417]


def test_conditional_cdf_properties():
    law = ConditionalLaw(P3, 5, 1.0)
    assert law.cdf(0.0) == 0.0
    assert law.cdf(1.0) == pytest.approx(1.0, abs=1e-13)
    assert law.cdf(2.0) == pytest.approx(1.0, abs=1e-13)  # clipped
    grid = np.linspace(0, 1, 50)
    vals = law.cdf(grid)
    assert np.all(np.diff(vals) >= -1e-15)
    # vectorized equals scalar
    assert vals[20] == law.cdf(float(grid[20]))


def test_cross_dimension_conditional_identities():
    # the stated identities hold exactly at the level of the analytic
    # laws: dim1 and dim2 share even-n laws; dim2 and dim3 share odd-n
    p1 = ModelParams(c=1.0, lam=1.0, dim=1)
    for u in (0.1, 0.5, 0.9):
        for n in (2, 4, 6):
            assert ConditionalLaw(p1, n, 1.0).density(u) == pytest.approx(
                ConditionalLaw(P2, n, 1.0).density(u), rel=1e-13)
        for n in (3, 5, 7):
            assert ConditionalLaw(P2, n, 1.0).density(u) == pytest.approx(
                ConditionalLaw(P3, n, 1.0).density(u), rel=1e-13)


def test_unconditional_cdf_with_conditioning_argument():
    assert ConditionalLaw(P2, 2, 1.0).cdf(0.4) == pytest.approx(0.4)
    assert cdf_u(P2, 1.0, 0.0) == 0.0
    assert cdf_u(P2, 1.0, -0.3) == 0.0


def test_unconditional_cdf_frozen_values():
    assert cdf_u(P2, 1.0, 0.5) == pytest.approx(0.12977687207523544,
                                                abs=1e-9)
    assert cdf_u(P3, 1.0, 0.5) == pytest.approx(0.03192247679344387,
                                                abs=1e-9)


# --- moments ---------------------------------------------------------------

def test_mean_frozen_and_guards():
    assert mean_u(P2, 1.0) == pytest.approx(0.869430355787745, rel=1e-13)
    with pytest.raises(ValueError):
        mean_u(P3, 1.0)
    with pytest.raises(ValueError):
        mean_u(P2, 0.0)


def test_moment_frozen_values_second_params():
    wants = {1: 0.48009590189404816, 2: 0.32540291148989997,
             3: 0.25477834178132736, 4: 0.2153788496612573}
    for m, want in wants.items():
        assert moment_u(P2B, m, 2.0) == pytest.approx(want, rel=1e-12)


def test_moment_edge_cases():
    assert moment_u(P2, 0, 1.0) == pytest.approx(1.0, abs=1e-13)
    assert moment_u(P2, 1, 1.0) == pytest.approx(mean_u(P2, 1.0), rel=1e-13)
    assert moment_u(P2B, 0, 2.0) == pytest.approx(1.0, abs=1e-13)
    assert moment_u(P2B, 1, 2.0) == pytest.approx(mean_u(P2B, 2.0),
                                                  rel=1e-13)
    with pytest.raises(ValueError):
        moment_u(P2, -1, 1.0)
    with pytest.raises(ValueError):
        moment_u(P3, 2, 1.0)


@pytest.mark.parametrize("m", [True, 2.5, 2.0], ids=["True", "2.5", "2.0"])
def test_moment_takes_integer_m(m):
    # True once returned the mean (0.869430...) and 2.5 returned 0.81285
    with pytest.raises(ValueError, match="m must be an integer"):
        moment_u(P2, m, 1.0)
    assert moment_u(P2, np.int64(2), 1.0) == moment_u(P2, 2, 1.0)


def test_moment_vs_quadrature_oracle():
    t = 1.0
    sing = sum(m.mass for m in singular_masses(P2, t))
    for m in range(7):
        quad, _ = integrate.quad(
            lambda x: x ** m * density_u(P2, t, x), 0.0, 1.0,
            points=[1.0 - 1e-6], epsabs=1e-12, epsrel=1e-12, limit=200)
        assert moment_u(P2, m, t) == pytest.approx(quad + sing, abs=1e-9)


@pytest.mark.parametrize("lam", [1.0, 0.1, 1e-3, 1e-6, 1e-8])
def test_moments_at_small_lambda_t_match_oracle(lam):
    # three non-negative terms: nothing cancels as lam*t -> 0, so
    # E U^2 stays at or below (ct)^2
    params = ModelParams(c=1.0, lam=lam, dim=2)
    for m in (0, 1, 2, 4):
        want = verify._moment_oracle(params, 1.0, m)
        assert moment_u(params, m, 1.0) == pytest.approx(want, rel=1e-14)
    assert mean_u(params, 1.0) == pytest.approx(
        verify._moment_oracle(params, 1.0, 1), rel=1e-14)
    assert moment_u(params, 2, 1.0) <= 1.0 + 4e-16


def test_moments_stay_finite_at_extreme_arguments():
    # every term is formed in log space: no overflow as lam -> 0 or for
    # m up to MAX_MOMENT
    tiny = ModelParams(c=1.0, lam=1e-300, dim=2)
    assert moment_u(tiny, 2, 1.0) == 1.0
    assert mean_u(tiny, 1.0) == 1.0
    assert mean_u(ModelParams(c=1.0, lam=1e-16, dim=2), 1.0) == \
        pytest.approx(1.0, rel=1e-15)
    assert 0.0 < moment_u(P2, 400, 1.0) < 1.0
    assert 0.0 < moment_u(P2, MAX_MOMENT, 1.0) < moment_u(P2, 400, 1.0)
    with pytest.raises(ValueError):
        moment_u(P2, MAX_MOMENT + 1, 1.0)


@pytest.mark.parametrize("lt", [1e3, 1e5, 1e8])
def test_first_moment_is_the_mean_at_large_lambda_t(lt):
    # every term is scaled by e^{-lam t} before its log is taken, so the
    # size of lam*t costs no digits
    params = ModelParams(c=1.0, lam=lt, dim=2)
    assert moment_u(params, 1, 1.0) == pytest.approx(mean_u(params, 1.0),
                                                     rel=1e-14)
    assert moment_u(params, 0, 1.0) == pytest.approx(1.0, rel=1e-14)


def test_poisson_pmf_forms():
    assert laws.poisson_pmf(0, 0.0) == 1.0
    assert laws.poisson_pmf(3, 0.0) == 0.0
    assert isinstance(laws.poisson_pmf(2, 1.5), float)
    ns = np.arange(40)
    got = laws.poisson_pmf(ns, 7.5)
    want = [math.exp(-7.5) * 7.5 ** n / math.factorial(n) for n in ns]
    np.testing.assert_allclose(got, want, rtol=1e-13)


def test_poisson_terms_are_exact_term_ratios():
    # P(N=n)/P(N=1000) at lam*t = 1000 as exact rationals; lgamma's
    # rounding alone is 1e-12 there
    params = ModelParams(c=1.0, lam=1000.0, dim=2)
    ns, weights = laws._poisson_terms(params, 1.0)
    mode = weights[ns == 1000][0]
    for n, weight in zip(ns[(ns >= 800) & (ns <= 1200)][::9],
                         weights[(ns >= 800) & (ns <= 1200)][::9]):
        exact = (Fraction(1000) ** (int(n) - 1000)
                 * Fraction(math.factorial(1000), math.factorial(int(n))))
        assert weight / mode == pytest.approx(float(exact), rel=1e-13)
    # the table's tails hold < 2**-59, so the terms from n = dim sum to
    # the a.c. mass
    assert weights.sum() == pytest.approx(ac_mass(params, 1.0), abs=1e-15)


def test_mean_short_time_limit():
    # as t -> 0 no switches happen, so U ~ ct and E U / ct -> 1
    for t in (1e-3, 1e-5):
        assert mean_u(P2, t) / t == pytest.approx(1.0, abs=5e-3)


def test_mean_large_intensity_finite():
    params = ModelParams(c=1.0, lam=800.0, dim=2)
    val = mean_u(params, 1.0)
    assert math.isfinite(val)
    assert 0 < val < 1


# --- conditional means -----------------------------------------------------

def test_conditional_mean_table():
    assert conditional_mean_u(3) == pytest.approx(9.0 / 16.0, rel=1e-15)
    assert conditional_mean_u(4) == pytest.approx(5.0 / 8.0, rel=1e-15)
    assert conditional_mean_u(5) == pytest.approx(5.0 / 12.0, rel=1e-15)
    with pytest.raises(SingularStratumError):
        conditional_mean_u(2)


def test_conditional_mean_matches_density_quadrature():
    # the closed-form table equals the first moment of the dim-3
    # conditional polynomial laws
    for n in range(3, 13):
        law = ConditionalLaw(P3, n, 1.0)
        want, _ = integrate.quad(lambda x: x * law.density(x), 0.0, 1.0,
                                 epsabs=1e-13, epsrel=1e-13, limit=200)
        assert conditional_mean_u(n) == pytest.approx(want, abs=1e-12)


def test_conditional_mean_ratio():
    # consecutive odd/even ratio (k+2)^2/((k+1)(k+4)); k=1 gives 0.9
    assert (conditional_mean_u(3) / conditional_mean_u(4)
            == pytest.approx(0.9, rel=1e-15))
    for k in (1, 2, 3, 5):
        want = (k + 2) ** 2 / ((k + 1) * (k + 4))
        assert (conditional_mean_u(2 * k + 1) / conditional_mean_u(2 * k + 2)
                == pytest.approx(want, rel=1e-13))


def _catalan(k: int) -> int:
    return math.comb(2 * k, k) // (k + 1)


def _catalan_mean(n: int) -> float:
    """`conditional_mean_u` rewritten through the Catalan numbers C_k."""
    if n % 2 == 1:
        k = (n - 1) // 2
        return ((2 * k + 1) * _catalan(k) * (k + 2)
                / (2 ** (2 * k + 1) * (k + 1)))
    k = (n - 2) // 2
    return ((2 * k + 1) * _catalan(k) * (k + 4)
            / (2 ** (2 * k + 1) * (k + 2)))


def test_catalan_forms_agree():
    assert _catalan(0) == 1
    assert _catalan(4) == 14
    for n in range(3, 15):
        assert _catalan_mean(n) == pytest.approx(conditional_mean_u(n),
                                                 rel=1e-14)
    with pytest.raises(SingularStratumError):
        conditional_mean_u(1)
