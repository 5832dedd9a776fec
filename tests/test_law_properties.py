"""Property tests of the law layer over drawn dims, lam, t, n and u."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclic_motion import laws
from cyclic_motion.model import ModelParams

PROPERTIES = settings(derandomize=True, deadline=None, max_examples=50,
                      database=None)


@st.composite
def cases(draw):
    """(params, t, n, u): u spans [-0.2 ct, 1.2 ct], so it leaves the
    support on both sides."""
    dim = draw(st.integers(1, 3))
    params = ModelParams(c=1.0, lam=draw(st.floats(1e-3, 1e3)), dim=dim)
    t = draw(st.floats(1e-2, 10.0))
    n = draw(st.integers(dim, 500))
    fracs = draw(st.lists(st.floats(-0.2, 1.2), min_size=1, max_size=30))
    return params, t, n, np.array(fracs) * (params.c * t)


@PROPERTIES
@given(cases())
def test_conditional_cdf_is_a_distribution_function(case):
    params, t, n, u = case
    law = laws.ConditionalLaw(params, n, t)
    vals = law.cdf(np.sort(u))
    assert np.all(np.diff(vals) >= -1e-15)
    assert np.all((vals >= 0.0) & (vals <= 1.0 + 3e-15))
    assert law.cdf(params.c * t) == 1.0


@PROPERTIES
@given(cases())
def test_densities_are_finite_and_non_negative(case):
    params, t, n, u = case
    for density in (laws.ConditionalLaw(params, n, t).density(u),
                    laws.mixture_density(params, t, u)):
        assert np.all(np.isfinite(density))
        assert np.all(density >= 0.0)


@PROPERTIES
@given(cases())
def test_cdf_u_stays_within_the_ac_mass(case):
    params, t, _, u = case
    vals = laws.cdf_u(params, t, u)
    assert np.all((vals >= 0.0) & (vals <= laws.ac_mass(params, t) + 1e-12))


@PROPERTIES
@given(cases(), st.integers(0, 29))
def test_nan_u_raises(case, at):
    params, t, n, u = case
    u[at % u.size] = np.nan
    law = laws.ConditionalLaw(params, n, t)
    for call in (law.density, law.cdf,
                 lambda x: laws.mixture_density(params, t, x),
                 lambda x: laws.cdf_u(params, t, x)):
        with pytest.raises(ValueError, match="NaN"):
            call(u)
