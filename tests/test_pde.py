"""PDE residuals, the exact CF, heat limit, and grid utilities.

`pde` returns the residuals; `verify` fits their order and builds the
rows, so the convergence assertions read verify's rows.
"""

import ast
import cmath
import math
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate

from cyclic_motion import bessel, laws, pde, simulate, stats, verify
from cyclic_motion.model import ModelParams
from cyclic_motion.pde import (MAX_QUADRATURE_EVENTS, average_cf,
                               cf_recursion_check, cf_theta, conditional_cf,
                               density_moment, klein_gordon_residual,
                               planar_fourth_order_residual)

P2 = ModelParams(c=1.0, lam=1.0, dim=2)
P3 = ModelParams(c=1.0, lam=1.0, dim=3)


def _order_row(residual):
    """verify's row for a pde residual (h_values, max_abs)."""
    return verify._order_report("residual", residual)


def _imports(module):
    """The module's AST and every module and name it imports."""
    tree = ast.parse(Path(module.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.add((node.module or "").rsplit(".", 1)[-1])
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(alias.name.rsplit(".", 1)[-1]
                            for alias in node.names)
    return tree, imported


def test_pde_computes_and_never_judges():
    # pde returns numbers; verify owns every row, threshold and verdict
    tree, imported = _imports(pde)
    assert not imported & {"simulate", "stats"}, imported
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    names |= {node.attr for node in ast.walk(tree)
              if isinstance(node, ast.Attribute)}
    assert "TestReport" not in names | imported


@pytest.mark.parametrize("module", [bessel, laws, pde],
                         ids=["bessel", "laws", "pde"])
def test_analytic_layer_never_imports_the_sampler_or_the_checks(module):
    # the closed forms sit wholly below the sampler and the check layer,
    # so a check that compares the two never compares a layer with itself
    _, imported = _imports(module)
    assert not imported & {"simulate", "stats", "verify"}, imported


def test_order_report_fit():
    rep = verify._order_report(
        "exact_h2", ([0.04, 0.02, 0.01], [1.6e-4, 4e-5, 1e-5]))
    assert rep.statistic == pytest.approx(2.0, abs=1e-12)
    assert rep.passed
    assert abs(rep.statistic - 4.0) > 0.3
    assert "order=2.00" in rep.detail


@pytest.mark.parametrize("params", [P2, P3])
def test_klein_gordon_residual_second_order(params):
    h_values, max_abs = klein_gordon_residual(params)
    assert h_values == [0.02, 0.01, 0.005]
    rep = _order_row((h_values, max_abs))
    assert rep.passed, rep.detail
    # residuals actually shrink
    assert max_abs[-1] < max_abs[0] / 8


def test_fourth_order_layer_field_control():
    # the layer parametrization p(x+y, t) satisfies the factored
    # operator identity: residual -> 0 at O(h^2)
    _, max_abs = residual = planar_fourth_order_residual(P2, f_field="layer")
    rep = _order_row(residual)
    assert rep.passed, rep.detail
    assert max_abs[-1] < 1e-3


def test_fourth_order_point_field_residual_does_not_vanish():
    # the coarea point field p/(4u) does NOT satisfy the operator
    # identity: the residual plateaus instead of converging (pinned
    # behaviour; see the verification-status notes)
    _, max_abs = residual = planar_fourth_order_residual(P2)
    assert not _order_row(residual).passed
    assert min(max_abs) > 1.0


@pytest.mark.parametrize("dim,n", [(2, 2), (2, 3), (2, 4), (2, 8),
                                   (3, 3), (3, 4), (3, 5), (3, 6), (3, 8)])
def test_position_uniform_on_level_sets_only_up_to_2d(dim, n):
    # uniform on the level set |x|_1 = U makes |X_1|/U ~ Beta(1, d-1);
    # the simulated position is that for d <= n <= 2d and not at n = 8,
    # so p/(4u) is the planar point density only where P(N > 4) is small
    sample = simulate.simulate_ensemble(ModelParams(c=1.0, lam=1.0, dim=dim),
                                        1.0, 100_000, 11, conditioning=n)
    ratio = np.sort(np.abs(sample.positions[:, 0]) / sample.u)

    def beta_cdf(v):
        return 1.0 - (1.0 - v) ** (dim - 1)

    p = stats.ks_one_sample(ratio, beta_cdf).p_value
    assert p > 0.01 if n <= 2 * dim else p < 1e-20


def test_fourth_order_symmetric_in_x_y():
    # the operator treats x and y symmetrically; swapping the split of
    # u into (x, y) must give identical residuals
    h = 0.02
    w = pde._fourth_order_weights(P2, h)
    t0, u = 1.0, 0.5

    def residual(x, y):
        cube = np.empty((5, 5, 5))
        offs = np.arange(-2, 3)
        f = pde._point_field(P2)
        for a, dt in enumerate(offs):
            for b, dx in enumerate(offs):
                for cc, dy in enumerate(offs):
                    cube[a, b, cc] = f(t0 + dt * h, x + dx * h, y + dy * h)
        return float(np.sum(w * cube))

    r_xy = residual(0.35 * u, 0.65 * u)
    r_yx = residual(0.65 * u, 0.35 * u)
    assert r_xy == pytest.approx(r_yx, rel=1e-9)


def test_fourth_order_domain_guard():
    # at the fixed grid the stencil leaves the strip for c below ~0.29
    slow = ModelParams(c=0.25, lam=1.0, dim=2)
    with pytest.raises(ValueError, match="too small"):
        planar_fourth_order_residual(slow)
    with pytest.raises(ValueError):
        planar_fourth_order_residual(P3)


def test_stencil_weights_on_exponential():
    # exp(a t + b x + c y) turns every partial derivative into a
    # multiplication, giving an exact analytic value for the composite
    # operator; the stencil must reproduce it as h -> 0
    lam, c = P2.lam, P2.c
    a, b, d = 0.3, 0.4, 0.5

    def f(t, x, y):
        return math.exp(a * t + b * x + d * y)

    apt2 = (a + lam) ** 2
    exact_factor = ((apt2 - c ** 2 * b ** 2) * (apt2 - c ** 2 * d ** 2)
                    - lam ** 4)
    t0, x0, y0 = 1.0, 0.2, 0.3
    errs = []
    for h in (0.04, 0.02, 0.01):
        w = pde._fourth_order_weights(P2, h)
        offs = np.arange(-2, 3)
        cube = np.empty((5, 5, 5))
        for i, dt in enumerate(offs):
            for j, dx in enumerate(offs):
                for k, dy in enumerate(offs):
                    cube[i, j, k] = f(t0 + dt * h, x0 + dx * h, y0 + dy * h)
        got = float(np.sum(w * cube))
        errs.append(abs(got - exact_factor * f(t0, x0, y0)))
    order = np.polyfit(np.log([0.04, 0.02, 0.01]), np.log(errs), 1)[0]
    assert order == pytest.approx(2.0, abs=0.2)


# --- characteristic functions ---------------------------------------------

def test_cf_theta_tables():
    # theta_k walks the model's cycle +e1, +e2, -e1, -e2 from direction j
    om = (1.0, 0.5)
    assert cf_theta(1, 1, om) == 1.0
    assert cf_theta(2, 1, om) == 0.5
    assert cf_theta(3, 1, om) == -1.0
    assert cf_theta(4, 1, om) == -0.5
    assert cf_theta(5, 1, om) == 1.0  # period 4
    assert cf_theta(1, 2, om) == 0.5
    assert cf_theta(1, 3, om) == -1.0
    # dim 3: +e1, +e2, +e3, -e1, -e2, -e3
    om3 = (0.7, 0.3, -0.5)
    assert [cf_theta(k, 2, om3) for k in range(1, 8)] == \
        [0.3, -0.5, -0.7, -0.3, 0.5, 0.7, 0.3]


def test_cf_quadrature_frozen_values():
    assert average_cf(P2, 1, (1.0, 0.0), 1.0) == pytest.approx(
        math.sin(1.0), abs=1e-12)
    assert average_cf(P2, 1, (0.5, 0.5), 1.0) == pytest.approx(
        0.9182168195493894, abs=1e-12)
    assert average_cf(P2, 2, (1.0, 0.0), 1.0) == pytest.approx(
        0.9193953882637205, abs=1e-12)
    assert average_cf(P2, 2, (0.5, 0.5), 1.0) == pytest.approx(
        0.958851077208406, abs=1e-12)
    # j=3 runs -e1, -e2, +e1: thetas (-0.5, -0.5, 0.5)
    got = conditional_cf(P2, 2, 3, (0.5, 0.5), 1.0)
    want = 0.9588510772084061 - 0.1625370306360666j
    assert got == pytest.approx(want, abs=1e-12)


def test_cf_quadrature_n0_n1_exact():
    # n=0: bare exponential; n=1, j=1 at (0.5, 0.5): theta_1 = theta_2
    # = 0.5 (+e1 then +e2), so the integrand is constant and
    # G_1 = e^{i c t / 2}
    assert conditional_cf(P2, 0, 1, (1.0, 0.0), 1.0) == \
        pytest.approx(cmath.exp(1j), abs=1e-15)
    got = conditional_cf(P2, 1, 1, (0.5, 0.5), 1.0)
    assert got == pytest.approx(cmath.exp(0.5j), abs=1e-13)


def test_cf_quadrature_zero_angles_give_one():
    for params in (P2, P3):
        for n in (0, 1, 2, 10):
            for j in range(1, params.n_directions + 1):
                got = conditional_cf(params, n, j, (0.0,) * params.dim, 1.0)
                assert got == pytest.approx(1.0, abs=1e-14)


def test_cf_quadrature_matches_dblquad():
    # independent oracle: scipy adaptive double quadrature of the n=2
    # simplex integral for one direction
    c, t, j, al, be = 1.0, 1.0, 1, 0.7, 0.3
    th = [cf_theta(k, j, (al, be)) for k in (1, 2, 3)]

    def integrand_re(s2, s1):
        ph = c * (s1 * th[0] + (s2 - s1) * th[1] + (t - s2) * th[2])
        return math.cos(ph)

    def integrand_im(s2, s1):
        ph = c * (s1 * th[0] + (s2 - s1) * th[1] + (t - s2) * th[2])
        return math.sin(ph)

    re, _ = integrate.dblquad(integrand_re, 0, t, lambda s1: s1,
                              lambda s1: t, epsabs=1e-12)
    im, _ = integrate.dblquad(integrand_im, 0, t, lambda s1: s1,
                              lambda s1: t, epsabs=1e-12)
    want = (re + 1j * im) * 2.0 / t ** 2
    got = conditional_cf(P2, 2, j, (al, be), t)
    assert got == pytest.approx(want, abs=1e-11)


def _series_cf(z, terms=80):
    """G_n = sum_m n! h_m(z) / (n+m)!, h_m the complete homogeneous
    symmetric polynomial of degree m in z_1..z_{n+1}."""
    h = np.zeros(terms, dtype=complex)
    h[0] = 1.0
    for zk in z:
        for m in range(1, terms):
            h[m] += zk * h[m - 1]
    n = len(z) - 1
    return np.sum(h / np.cumprod([1.0] + [n + m for m in range(1, terms)]))


@pytest.mark.parametrize("params,omega", [
    (ModelParams(c=1.0, lam=1.0, dim=1), (0.7,)),
    (P2, (0.7, 0.3)),
    (P3, (0.7, 0.3, -0.5)),
    (ModelParams(c=1.0, lam=1.0, dim=8), (0.7, 0.3, -0.5, 0.9, -0.1, 0.2,
                                          -0.8, 0.4))])
@pytest.mark.parametrize("n", [0, 1, 2, 10, 20, 40])
def test_conditional_cf_matches_series(params, omega, n):
    # the superdiagonal 1..n keeps the corner entry exact; with ones
    # times n! the error is 2e-4 at n=20 and 1e8 at n=40
    for t in (1.0, 3.0):
        for j in range(1, params.n_directions + 1):
            z = [1j * params.c * t * cf_theta(k, j, omega)
                 for k in range(1, n + 2)]
            got = conditional_cf(params, n, j, omega, t)
            assert abs(got - _series_cf(z)) < 1e-12, (t, j)


@pytest.mark.parametrize("params,omega", [(P2, (0.7, 0.3)),
                                          (P3, (0.7, 0.3, -0.5))])
@pytest.mark.parametrize("n", [2, 5, 10])
def test_conditional_cf_matches_simulation_per_direction(params, omega, n):
    # per initial direction, against class-sum paths with exactly n
    # switches; a reversed cycle flips the sign of the imaginary parts
    s = simulate.simulate_ensemble(params, 1.0, 240_000, 4100 + n,
                                   conditioning=n)
    phases = np.exp(1j * (s.positions @ np.asarray(omega)))
    for j in range(1, params.n_directions + 1):
        sample = phases[s.initial_direction == j]
        want = conditional_cf(params, n, j, omega, 1.0)
        assert abs(stats.z_score(sample.real, want.real)) <= 3.0, j
        assert abs(stats.z_score(sample.imag, want.imag)) <= 3.0, j


def test_cf_quadrature_guards():
    with pytest.raises(ValueError):
        conditional_cf(P2, -1, 1, (1.0, 0.0), 1.0)
    with pytest.raises(ValueError):
        conditional_cf(P2, 1, 5, (1.0, 0.0), 1.0)
    with pytest.raises(ValueError):
        conditional_cf(P3, 1, 1, (1.0, 0.0), 1.0)


@pytest.mark.parametrize("n", [True, 2.0, np.float64(2)],
                         ids=["True", "float", "numpy-float"])
def test_cf_rejects_non_integer_n(n):
    # True once raised TypeError deep in numpy, 2.0 a TypeError from range
    with pytest.raises(ValueError, match="n must be an integer"):
        conditional_cf(P2, n, 1, (1.0, 0.0), 1.0)


@pytest.mark.parametrize("j", [1.5, True, 2.0], ids=["1.5", "True", "2.0"])
def test_cf_rejects_non_integer_direction(j):
    # 1.5 once raised TypeError from an index, True acted as direction 1
    with pytest.raises(ValueError, match="direction index must be an integer"):
        conditional_cf(P2, 2, j, (1.0, 0.0), 1.0)


@pytest.mark.parametrize("t", [float("nan"), float("inf"), -1.0, 0.0])
def test_cf_rejects_bad_horizon(t):
    with pytest.raises(ValueError, match="finite and > 0"):
        conditional_cf(P2, 2, 1, (1.0, 0.0), t)
    with pytest.raises(ValueError, match="finite and > 0"):
        average_cf(P2, 2, (1.0, 0.0), t)
    with pytest.raises(ValueError, match="finite and > 0"):
        cf_recursion_check(P2, 2, 1, (1.0, 0.0), t)


@pytest.mark.parametrize("omega", [(float("nan"), 0.0), (0.5, float("inf")),
                                   (float("-inf"), 1.0)])
def test_cf_rejects_non_finite_omega(omega):
    with pytest.raises(ValueError, match="omega must be finite"):
        conditional_cf(P2, 2, 1, omega, 1.0)
    with pytest.raises(ValueError, match="omega must be finite"):
        average_cf(P2, 2, omega, 1.0)
    with pytest.raises(ValueError, match="omega must be finite"):
        cf_recursion_check(P2, 2, 1, omega, 1.0)


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("j", [1, 4])
def test_cf_recursion_second_order(n, j):
    rep = verify._cf_recursion_report(P2, n, j, (0.5, 0.5), 1.0)
    assert rep.passed, rep.detail


@pytest.mark.parametrize("n", [3, 10])
@pytest.mark.parametrize("j", [1, 5])
def test_cf_recursion_second_order_dim3(n, j):
    rep = verify._cf_recursion_report(P3, n, j, (0.7, 0.3, -0.5), 1.0)
    assert rep.name == f"cf_recursion_n{n}_j{j}_a0.7_b0.3_c-0.5"
    assert rep.passed, rep.detail


def test_cf_recursion_check_evaluates_each_point_once(monkeypatch):
    # F_n at t +- h for the three steps, and F_{n-1}(t) and F_n(t) once
    points = []
    cf = pde.conditional_cf

    def counted(params, m, j, omega, t):
        points.append((m, t))
        return cf(params, m, j, omega, t)

    monkeypatch.setattr(pde, "conditional_cf", counted)
    cf_recursion_check(P2, 2, 1, (0.5, 0.5), 1.0)
    assert len(points) == len(set(points)) == 8


def test_cf_recursion_guard():
    with pytest.raises(ValueError):
        cf_recursion_check(P2, 0, 1, (1.0, 0.0), 1.0)


@pytest.mark.parametrize("t", [0.005, 0.01, 0.02])
def test_cf_recursion_rejects_t_within_the_largest_step(t):
    # t - 0.02 would be no horizon: the message names the caller's t
    with pytest.raises(ValueError, match=f"largest step 0.02, got {t}$"):
        cf_recursion_check(P2, 1, 1, (0.5, 0.5), t)


def test_cf_recursion_just_above_the_largest_step():
    h_values, max_abs = cf_recursion_check(P2, 1, 1, (0.5, 0.5), 0.021)
    assert h_values == [0.02, 0.01, 0.005]
    assert all(np.isfinite(max_abs))


# --- limit and normalization ----------------------------------------------

def test_heat_limit_smoke():
    rep = verify._heat_limit_report(2, 9)
    assert rep.passed, rep.detail
    assert rep.name == "heat_limit_dim2"


def test_normalization_check_report():
    # c = lam = 1, so the rows run over lam*t = t
    rows = {rep.name: rep for rep in verify.normalization()}
    rep = rows["normalization_dim2_lt1"]
    assert rep.passed
    assert rep.statistic < 1e-10
    rep3 = rows["normalization_dim3_lt2"]
    assert rep3.passed


# --- the fixed Gauss-Legendre rule against scipy's adaptive quad ----------

def _adaptive(f, b, peak=None):
    """scipy's quad of f over (0, b) to 1e-13 relative; ``peak`` splits
    off the density's bump near u = 0 at large lam*t."""
    val, _ = integrate.quad(f, 0.0, b, points=peak, epsabs=0.0,
                            epsrel=1e-13, limit=500)
    return val


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("lt", [1e-3, 0.5, 1.0, 5.0, 50.0,
                                MAX_QUADRATURE_EVENTS])
@pytest.mark.parametrize("c,t", [(1.0, 1.0), (2.0, 0.5)])
def test_density_moment_matches_adaptive_quad(dim, lt, c, t):
    params = ModelParams(c=c, lam=lt / t, dim=dim)
    ct = c * t
    peak = [ct * min(0.9, 10.0 / math.sqrt(lt))]
    for m in range(7):
        want = _adaptive(lambda u: u ** m * laws.density_u(params, t, u),
                         ct, peak)
        assert density_moment(params, t, m) == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("m", [-1, 2.5, True, 7])
def test_density_moment_takes_integer_m_in_range(m):
    # m = -1 diverges (the dim-2 density is positive at u = 0); m = 2.5
    # and True are not integers; 7 is past the rule's accuracy note
    with pytest.raises(ValueError, match="m must be"):
        density_moment(P2, 1.0, m)


@pytest.mark.parametrize("n", range(3, 13))
def test_conditional_mean_rule_matches_adaptive_quad(n):
    law = laws.ConditionalLaw(P3, n, 1.0)

    def f(x):
        return x * law.density(x)

    assert abs(pde._gauss_legendre(f, 0.0, 1.0) - _adaptive(f, 1.0)) <= 1e-13

