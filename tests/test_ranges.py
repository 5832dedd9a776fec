"""The supported lam*t, n and m of every public law (the README table).

Each row names a bound: the law is finite at the bound and raises
ValueError one step past it (one ulp for lam*t, one for n and m).
"""

import math

import numpy as np
import pytest

from cyclic_motion import laws, pde, simulate
from cyclic_motion.bessel import MAX_LAMBDA_T, MAX_MOMENT, kernel_integral
from cyclic_motion.model import ModelParams


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
    ("simulate_ensemble", simulate.MAX_MEAN_EVENTS,
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
