"""The supported lam*t, n and m of every public law (the README table).

Each row names a bound: the law is finite at the bound and raises
ValueError one step past it (one ulp for lam*t, one for n and m).
"""

import math
import re

import numpy as np
import pytest

from cyclic_motion import laws, pde, rng, simulate
from cyclic_motion.bessel import (MAX_LAMBDA_T, MAX_MOMENT,
                                  MIN_COEFFICIENT_LAMBDA_T, kernel_derivative,
                                  kernel_identity_residual, kernel_integral)
from cyclic_motion.model import ModelParams, classify_stratum


def _lt(lt, dim=2):
    """ModelParams with lam = lam*t at t = 1."""
    return ModelParams(c=1.0, lam=lt, dim=dim)


P1, P2, P3 = (ModelParams(c=1.0, lam=1.0, dim=d) for d in (1, 2, 3))

ROWS = [
    ("density_u", MAX_LAMBDA_T,
     lambda lt: laws.density_u(_lt(lt, 3), 1.0, 0.0)),
    ("density_u_from_coefficients", MAX_LAMBDA_T,
     lambda lt: laws.density_u_from_coefficients(_lt(lt), 1.0, 0.0)),
    ("density_u_closed_form", MAX_LAMBDA_T,
     lambda lt: laws.density_u_closed_form(_lt(lt), 1.0, 0.0)),
    ("ConditionalLaw", laws.MAX_SWITCHES,
     lambda n: (laws.ConditionalLaw(P3, n, 1.0).density(1e-3),
                laws.ConditionalLaw(P1, n, 1.0).density(1e-3))),
    ("mixture_density", laws.MAX_MIXTURE_EVENTS,
     lambda lt: laws.mixture_density(_lt(lt, 3), 1.0, 1e-3)),
    ("cdf_u", laws.MAX_MIXTURE_EVENTS,
     lambda lt: laws.cdf_u(_lt(lt), 1.0, 1e-3)),
    ("mean_u", MAX_LAMBDA_T, lambda lt: laws.mean_u(_lt(lt), 1.0)),
    ("moment_u lam*t", MAX_LAMBDA_T,
     lambda lt: laws.moment_u(_lt(lt), 2, 1.0)),
    ("moment_u m", MAX_MOMENT, lambda m: laws.moment_u(P2, m, 1.0)),
    ("kernel_integral m", MAX_MOMENT,
     lambda m: kernel_integral(P2, 1.0, m, 2)),
    ("conditional means", laws.MAX_MEAN_SWITCHES,
     laws.conditional_mean_u),
    ("density_moment", pde.MAX_QUADRATURE_EVENTS,
     lambda lt: pde.density_moment(_lt(lt, 3), 1.0, 6)),
    ("density_moment m", pde.MAX_QUADRATURE_MOMENT,
     lambda m: pde.density_moment(P2, 1.0, m)),
    ("conditional_cf", pde.MAX_CF_SWITCHES,
     lambda n: pde.conditional_cf(P2, n, 1, (0.7, 0.3), 1.0)),
    ("simulate_ensemble", MAX_LAMBDA_T,
     lambda lt: simulate.simulate_ensemble(_lt(lt), 1.0, 1, 1).u),
    ("simulate_ensemble conditioning", simulate.MAX_CONDITIONING,
     lambda n: simulate.simulate_ensemble(P1, 1.0, 1, 1,
                                          conditioning=n).positions),
]


def _past(bound):
    return bound + 1 if isinstance(bound, int) else np.nextafter(bound, math.inf)


@pytest.mark.parametrize("name,bound,call", ROWS, ids=[r[0] for r in ROWS])
def test_supported_range(name, bound, call):
    assert np.all(np.isfinite(call(bound))), name
    with pytest.raises(ValueError, match="supported|must be|unsupported"):
        call(_past(bound))


def test_kernel_integral_overflows_to_inf_inside_its_range():
    # the unscaled integral is +inf past lam*t ~ 700; past the ceiling
    # it raises instead of turning NaN
    assert kernel_integral(_lt(MAX_LAMBDA_T), 1.0, 0) == math.inf
    with pytest.raises(ValueError, match="supported"):
        kernel_integral(_lt(_past(MAX_LAMBDA_T)), 1.0, 0)


def test_conditional_laws_below_dim_are_singular():
    # the low end of the n range: the shell strata have no density
    for params in (P1, P2, P3):
        with pytest.raises(laws.SingularStratumError):
            laws.ConditionalLaw(params, params.dim - 1, 1.0)


@pytest.mark.parametrize("message,call", [
    ("n_events must be >= 0", lambda: classify_stratum(-1, 2)),
    ("n must be >= 0",
     lambda: simulate.sample_path_conditional(P2, 1.0, -1,
                                              rng.Substream(7, 0))),
    ("dim 2 and 3 only",
     lambda: laws.density_u_from_coefficients(_lt(1.0, 4), 1.0, 0.5)),
    ("f_field must be one of",
     lambda: pde.planar_fourth_order_residual(P2, f_field="bogus")),
], ids=["classify_stratum", "sample_path_conditional",
        "density_u_from_coefficients", "planar_fourth_order_residual"])
def test_invalid_argument_raises(message, call):
    with pytest.raises(ValueError, match=message):
        call()


@pytest.mark.parametrize("t_order,m", [(1, 0), (2, 1), (3, 0)])
def test_kernel_integral_vanishes_at_tiny_lambda_t(t_order, m):
    # every log-space term is -inf: the sum is 0.0, not NaN
    assert kernel_integral(_lt(1e-200), 1.0, m, t_order) == 0.0


def _scale_laws(c, lam, t):
    """Every law and the sampler at speed c, rate lam and horizon t, each
    a zero-argument call."""
    p1, p2, p3 = (ModelParams(c=c, lam=lam, dim=d) for d in (1, 2, 3))
    us = np.array([0.0, 0.5, 1.0]) * c * t
    calls = {
        "density_u": lambda: (laws.density_u(p2, t, us),
                              laws.density_u(p3, t, us)),
        "density_u_from_coefficients": lambda: (
            laws.density_u_from_coefficients(p2, t, us),
            laws.density_u_from_coefficients(p3, t, us)),
        "density_u_closed_form": lambda: laws.density_u_closed_form(
            p2, t, us[:-1]),
        "mean_u, moment_u": lambda: (laws.mean_u(p2, t),
                                     laws.moment_u(p2, 2, t)),
        "kernel_derivative": lambda: (
            [kernel_derivative(p2, t, us, k, 0, scaled=True)
             for k in range(4)],
            kernel_identity_residual(p3, t, us)),
        "kernel_integral": lambda: np.isnan(
            [kernel_integral(p2, t, m, k) for m in (0, 2) for k in (0, 1, 2)]),
        "density_moment": lambda: (pde.density_moment(p2, t, 2),
                                   pde.density_moment(p3, t, 6)),
        "conditional_cf": lambda: pde.conditional_cf(p2, 4, 1, (0.7, 0.3), t),
        "simulate_ensemble": lambda: (
            simulate.simulate_ensemble(p3, t, 8, 1).positions,
            simulate.simulate_ensemble(p2, t, 8, 1, conditioning=9).u),
        "sample_path": lambda: simulate.evolve(
            simulate.sample_path(p2, t, rng.Substream(1, 0))).position,
    }
    for p in (p1, p2, p3):
        calls[f"ConditionalLaw dim {p.dim}"] = lambda p=p: [
            (law.density(us), law.cdf(us)) for law in
            (laws.ConditionalLaw(p, n, t) for n in (p.dim, laws.MAX_SWITCHES))]
        calls[f"mixtures dim {p.dim}"] = lambda p=p: (
            laws.mixture_density(p, t, us), laws.cdf_u(p, t, us))
    return calls


def _finite(values) -> bool:
    """Whether every number in a nest of tuples, lists and arrays is finite."""
    if isinstance(values, (tuple, list)):
        return all(_finite(v) for v in values)
    return bool(np.all(np.isfinite(values)))


def _up(x):
    return np.nextafter(x, math.inf)


def _down(x):
    return np.nextafter(x, 0.0)


# (scale, (c, lam, t) on its bound, (c, lam, t) one ulp past it); each
# point has lam*t at most 1 and its other scales inside theirs
SCALES = [
    ("speed c", (1e-30, 1e-30, 1e30), (_down(1e-30), 1e-30, 1e30)),
    ("speed c", (1e30, 1e30, 1e-30), (_up(1e30), 1e30, 1e-30)),
    ("reach c*t", (1.0, 1e30, 1e-300), (1.0, 1e30, _down(1e-300))),
    ("reach c*t", (1.0, 1e-30, 1e30), (1.0, 1e-30, _up(1e30))),
]


@pytest.mark.parametrize("scale,inside,past", SCALES,
                         ids=["c low", "c high", "ct low", "ct high"])
def test_supported_scales(scale, inside, past):
    c, lam, t = inside
    for name, call in _scale_laws(*inside).items():
        if (name in ("density_u_from_coefficients", "density_u_closed_form")
                and lam * t < MIN_COEFFICIENT_LAMBDA_T):
            # "ct low" has lam*t <= 1e-270, below the coefficient and
            # closed forms
            with pytest.raises(ValueError, match="lam\\*t=.* below the "
                               "supported"):
                call()
            continue
        assert _finite(call()), name
    for name, call in _scale_laws(*past).items():
        with pytest.raises(ValueError, match=f"{re.escape(scale)}=.* "
                           "outside the supported scales"):
            call()


def test_rate_per_length_bound_of_the_bessel_forms():
    # lam/c enters the Bessel forms squared; the laws without lam/c
    # (conditional laws, mixtures, means, the sampler) take any
    inside = ModelParams(c=1.0, lam=1e30)
    past = ModelParams(c=1.0, lam=_up(1e30))
    for params in (inside, past):
        assert np.isfinite(laws.mean_u(params, 1e-30))
    for form in (laws.density_u, laws.density_u_from_coefficients):
        assert np.all(np.isfinite(form(inside, 1e-30, [0.0, 1e-30])))
        with pytest.raises(ValueError, match="lam/c=.* above the supported"):
            form(past, 1e-30, 0.0)


@pytest.mark.parametrize("call", [
    lambda: laws.density_u(ModelParams(c=1e160, lam=1.0), 1.0, 5e159),
    lambda: laws.mean_u(ModelParams(c=1e160, lam=1e-160), 1.0),
    lambda: laws.ConditionalLaw(ModelParams(c=1e200, lam=1.0, dim=3), 3,
                                1e200).density(math.inf),
    lambda: laws.density_u(ModelParams(c=1.0, lam=1e160), 1e-160, 0.0),
    lambda: laws.density_u_from_coefficients(
        ModelParams(c=1.0, lam=1e200, dim=3), 1e-200, 0.0),
    lambda: laws.density_u_closed_form(ModelParams(c=1.0, lam=1e298), 1e-300,
                                       0.0),
], ids=["density_u", "mean_u", "ConditionalLaw", "density_u lam/c",
        "coefficient form lam/c", "closed form"])
def test_scales_that_gave_nan_or_inf_raise(call):
    # NaN, inf, NaN (at u = ct = inf), NaN, OverflowError and NaN before
    # the scales were bounded; the closed form's (ct - u)(ct + u)
    # underflows to 0 below c*t ~ 1e-154 (its lam*t is 1e-2, at the
    # form's lower bound)
    with pytest.raises(ValueError, match="supported|0/0"):
        call()


def _rate_from(lt, t):
    """The smallest rate lam with lam*t >= lt."""
    lam = lt / t
    while lam * t < lt:
        lam = _up(lam)
    while _down(lam) * t >= lt:
        lam = _down(lam)
    return lam


def _cancelling_forms(dim):
    """The density forms whose O(lam) terms cancel, bounded below by
    `MIN_COEFFICIENT_LAMBDA_T`; the closed form is planar."""
    if dim == 2:
        return (laws.density_u_from_coefficients, laws.density_u_closed_form)
    return (laws.density_u_from_coefficients,)


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("c,t", [(1.0, 1.0), (1e-10, 1e10), (1e10, 1e-10),
                                 (0.5, 2.0)])
def test_coefficient_form_lower_lambda_t_bound(dim, c, t):
    # the forms' O(lam) terms cancel down to the density; at their lowest
    # lam*t they are within the 1e-9 of the density_forms_agree rows
    lam = _rate_from(MIN_COEFFICIENT_LAMBDA_T, t)
    params = ModelParams(c=c, lam=lam, dim=dim)
    below = ModelParams(c=c, lam=_down(lam), dim=dim)
    us = np.linspace(0.0, c * t, 101)[1:-1]
    want = laws.density_u(params, t, us)
    assert np.all(np.isfinite(laws.density_u(below, t, us)))
    for form in _cancelling_forms(dim):
        got = form(params, t, us)
        assert np.max(np.abs(got - want) / want) <= 1e-9, form
        with pytest.raises(ValueError,
                           match="lam\\*t=.* below the supported"):
            form(below, t, us)


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("lam", [3e-3, 1e-3, 1e-6, 1e-8, 1e-16, 1e-100,
                                 1e-160, 1e-200])
def test_coefficient_form_raises_where_it_was_wrong(dim, lam):
    # relative errors from 9e-10 to 15 (the closed form: 1e-9 at 1e-4 to
    # 6,943 at 1e-16), NaN and ZeroDivisionError before the lower bound
    params = ModelParams(c=1.0, lam=lam, dim=dim)
    for form in _cancelling_forms(dim):
        with pytest.raises(ValueError, match="below the supported"):
            form(params, 1.0, [0.25, 0.5])


@pytest.mark.parametrize("n", [0, 1, 4, 40, 200])
def test_conditional_cf_reach_bound(n):
    # c*t*max|omega_i| up to 1e30: finite, and exact where checkable;
    # it was NaN from about 1e39
    w = 1e30
    g = pde.conditional_cf(P2, n, 1, (w, 0.3 * w), 1.0)
    assert np.isfinite(g)
    if n == 0:
        assert g == complex(np.exp(1j * w))
    if n == 1:  # the divided difference of exp at i w and 0.3 i w
        z1, z2 = 1j * w, 0.3j * w
        assert abs(g - (np.exp(z2) - np.exp(z1)) / (z2 - z1)) < 1e-40
    for omega, params in (((_up(w), 0.3), P2), ((0.3, -_up(w)), P2),
                          ((0.6 * w, 0.3), ModelParams(2.0, 1.0, 2)),
                          ((1e300, 0.3), P2)):
        with pytest.raises(ValueError,
                           match="c\\*t\\*max.*above the supported"):
            pde.conditional_cf(params, n, 1, omega, 1.0)
