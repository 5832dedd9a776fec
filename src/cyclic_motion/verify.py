"""Statistical and numerical verification suites.

Each criterion function takes only its seed, draws its own seeded
ensembles (`_COUNT` paths each; the heat limit's count is in `pde`),
checks one documented property of the model (a boundary mass, a
conditional law, a moment identity, a PDE residual, a limit theorem),
and returns a list of `TestReport` rows.  A criterion holds at most one
ensemble at a time: it reads what it needs in the expression (or small
helper) that draws the ensemble, before it draws the next.  Criteria are
grouped into named suites:

* ``distributions`` — masses, conditional laws, density representations,
  normalization, mixture identity, equality-in-law pairs;
* ``moments`` — conditional and unconditional means/moments;
* ``pde`` — finite-difference residuals and characteristic-function
  recursions;
* ``limits`` — the diffusive (heat) scaling limit;
* ``conjecture`` — the higher-dimension equality-in-law pairs, which
  the exact law of U given N refutes for this model; reported with
  ``blocking=False`` so they never gate a build.

`run_suite` executes one suite (or ``all``) with deterministic
per-criterion seed offsets, so a fixed seed reproduces every report.
"""

from __future__ import annotations

import math

import numpy as np

from . import laws, pde, simulate, stats
from .bessel import kernel_identity_residual
from .model import ModelParams
from .rng import Substream
from .stats import TestReport

_ANGLES = ((1.0, 0.0), (0.0, 1.0), (0.5, 0.5))
_COUNT = 100_000  # paths per simulated ensemble


def _residual_report(rr: pde.ResidualReport) -> TestReport:
    return TestReport(
        name=rr.name, statistic=rr.order, p_value=None,
        tolerance=pde._ORDER_TOL, passed=rr.converged(), sample_size=None,
        detail=f"target order {pde._ORDER}+-{pde._ORDER_TOL}; " + rr.line())


def boundary_mass_2d(seed: int) -> list[TestReport]:
    """Planar singular share P(stratum != interior) vs 2 e^{-lam t}."""
    params = ModelParams(c=1.0, lam=1.0, dim=2)
    s = simulate.simulate_ensemble(params, 1.0, _COUNT, seed)
    p_hat = float(np.mean(s.n_events < params.dim))
    p_exp = 2.0 * math.exp(-1.0)
    se = math.sqrt(p_exp * (1.0 - p_exp) / _COUNT)
    z = abs(p_hat - p_exp) / se
    return [stats.bound_report(
        "boundary_mass_2d", z, 3.0, sample_size=_COUNT,
        detail=f"empirical={p_hat:.5f} expected={p_exp:.5f}")]


def _strata_and_vertices(params: ModelParams, t: float,
                         seed: int) -> tuple[dict[str, int], np.ndarray]:
    """Stratum counts and the initial directions of the vertex paths of
    one ensemble, which is dropped on return."""
    s = simulate.simulate_ensemble(params, t, _COUNT, seed)
    return s.stratum_counts(), s.initial_direction[s.n_events == 0]


def strata_masses_3d(seed: int) -> list[TestReport]:
    """3D stratum masses {vertex, face1, face2, interior} and per-vertex
    uniformity, chi-square at several Poisson intensities."""
    reports = []
    lam = 1.0
    for i, t in enumerate((0.5, 1.0, 2.0)):
        params = ModelParams(c=1.0, lam=lam, dim=3)
        counts, vert = _strata_and_vertices(params, t, seed + i)
        lt = lam * t
        p0 = math.exp(-lt)
        expected = {
            "vertex": p0,
            "face1": lt * p0,
            "face2": 0.5 * lt * lt * p0,
            "interior": 1.0 - p0 * (1.0 + lt + 0.5 * lt * lt),
        }
        reports.append(stats.chi_square_masses(
            counts, expected, name=f"strata_masses_3d_lt{lt:g}"))
        observed = {f"vertex{j}": int(np.sum(vert == j)) for j in range(1, 7)}
        observed["non_vertex"] = _COUNT - int(vert.size)
        expected_v = {f"vertex{j}": p0 / 6.0 for j in range(1, 7)}
        expected_v["non_vertex"] = 1.0 - p0
        reports.append(stats.chi_square_masses(
            observed, expected_v, name=f"vertex_uniformity_3d_lt{lt:g}"))
    return reports


def _sorted_u(dim: int, n: int, seed: int) -> np.ndarray:
    """Sorted radii of one ensemble with c = lam = t = 1 conditioned on
    N = n; the ensemble is dropped on return."""
    return np.sort(simulate.simulate_ensemble(
        ModelParams(c=1.0, lam=1.0, dim=dim), 1.0, _COUNT, seed,
        conditioning=n).u)


def conditional_uniformity_2d(seed: int) -> list[TestReport]:
    """KS of the planar two-switch radius U/(ct) against Uniform(0,1)
    (ct = 1)."""
    return [stats.ks_one_sample(
        _sorted_u(2, 2, seed), lambda x: np.clip(x, 0.0, 1.0),
        name="conditional_uniformity_2d_n2")]


def conditional_laws(seed: int) -> list[TestReport]:
    """One-sample KS of conditioned ensembles against the analytic
    conditional radius laws, dims 2 and 3, n = 3..6."""
    reports = []
    t = 1.0
    for dim in (2, 3):
        params = ModelParams(c=1.0, lam=1.0, dim=dim)
        for n in (3, 4, 5, 6):
            law = laws.ConditionalLaw(params, n, t)
            reports.append(stats.ks_one_sample(
                _sorted_u(dim, n, seed + 10 * dim + n), law.cdf,
                name=f"conditional_law_dim{dim}_n{n}"))
    return reports


def conditional_means_3d(seed: int) -> list[TestReport]:
    """Simulated 3D conditional means vs the closed-form table, plus a
    quadrature cross-check of the analytic values for n <= 12.

    For n <= 12 the conditional densities are polynomials of degree at
    most 10 in u, so `pde._gauss_legendre` integrates u times them
    exactly up to rounding."""
    reports = []
    params = ModelParams(c=1.0, lam=1.0, dim=3)
    t = 1.0
    ct = params.c * t
    for n in (3, 4, 5):
        analytic = laws.conditional_mean_u(n) * ct
        reports.append(stats.moment_compare(
            simulate.simulate_ensemble(params, t, _COUNT, seed + n,
                                       conditioning=n).u,
            analytic, 1, name=f"conditional_mean_mc_3d_n{n}"))
    worst = 0.0
    for n in range(3, 13):
        law = laws.ConditionalLaw(params, n, t)
        val = pde._gauss_legendre(lambda x: x * law.density(x), 0.0, ct)
        worst = max(worst, abs(val - laws.conditional_mean_u(n) * ct))
    reports.append(stats.bound_report(
        "conditional_mean_quadrature_3d", worst, 1e-10,
        detail="max |quad - analytic| over n=3..12"))
    return reports


def normalization(seed: int = 0) -> list[TestReport]:
    """Interior quadrature + shell masses sum to 1, dims 2-3."""
    return [pde.normalization_check(ModelParams(c=1.0, lam=1.0, dim=dim), lt)
            for dim in (2, 3) for lt in (0.5, 1.0, 2.0, 5.0)]


def _moment_oracle(params: ModelParams, t: float, m: int) -> float:
    """E U^m by quadrature of the density plus boundary atoms."""
    sing = sum(sm.mass for sm in laws.singular_masses(params, t))
    return pde.density_moment(params, t, m) + (params.c * t) ** m * sing


def mean_moments_2d(seed: int) -> list[TestReport]:
    """Planar mean and moments vs the quadrature oracle and Monte Carlo."""
    params = ModelParams(c=1.0, lam=1.0, dim=2)
    t = 1.0
    reports = []
    mean = laws.mean_u(params, t)
    oracle = _moment_oracle(params, t, 1)
    err = abs(mean - oracle)
    reports.append(stats.bound_report(
        "mean_vs_quadrature_2d", err, 1e-8,
        detail=f"analytic={mean:.12f} oracle={oracle:.12f}"))
    s = simulate.simulate_ensemble(params, t, _COUNT, seed)
    reports.append(stats.moment_compare(s.u, mean, 1, name="mean_vs_mc_2d"))
    worst = 0.0
    for m in range(2, 7):
        worst = max(worst, abs(laws.moment_u(params, m, t)
                               - _moment_oracle(params, t, m)))
    reports.append(stats.bound_report(
        "moments_vs_quadrature_2d", worst, 1e-8,
        detail="max |moment_u - oracle| over m=2..6"))
    e0 = abs(laws.moment_u(params, 0, t) - 1.0)
    e1 = abs(laws.moment_u(params, 1, t) - mean) / mean
    exact = max(e0, e1)
    reports.append(stats.bound_report(
        "moment_edge_cases_2d", exact, 1e-12,
        detail=f"|moment_0 - 1|={e0:.2e} rel|moment_1 - mean|={e1:.2e}"))
    return reports


def representation_agreement(seed: int) -> list[TestReport]:
    """Pointwise relative agreement of the density representations."""
    stream = Substream(seed, 0)
    reports = []
    for dim, forms in ((2, 3), (3, 2)):
        worst = 0.0
        for c, lam, t in ((1.0, 1.0, 1.0), (0.5, 2.0, 2.0)):
            params = ModelParams(c=c, lam=lam, dim=dim)
            us = stream.uniforms(500) * (c * t)
            a = laws.density_u(params, t, us)
            ref = np.maximum(np.abs(a), 1e-300)
            others = [laws.density_u_from_coefficients(params, t, us)]
            if forms == 3:
                others.append(laws.density_u_closed_form(params, t, us))
            for b in others:
                worst = max(worst, float(np.max(np.abs(a - b) / ref)))
        label = ("series vs kernel-coefficient vs Bessel closed form"
                 if forms == 3 else "series vs kernel-coefficient form")
        reports.append(stats.bound_report(
            f"density_forms_agree_dim{dim}", worst, 1e-9, detail=label,
            sample_size=1000))
    return reports


def mixture_identity(seed: int = 0) -> list[TestReport]:
    """Poisson mixture of conditional densities reproduces the density."""
    reports = []
    for dim in (2, 3):
        for t in (0.5, 2.0):
            params = ModelParams(c=1.0, lam=1.0, dim=dim)
            us = np.linspace(0.02, 0.98, 25) * params.c * t
            worst = float(np.max(np.abs(laws.mixture_density(params, t, us)
                                        - laws.density_u(params, t, us))))
            reports.append(stats.bound_report(
                f"mixture_identity_dim{dim}_lt{t:g}", worst, 1e-8,
                detail="max abs error, 25 interior points"))
    return reports


def pde_residuals(seed: int = 0) -> list[TestReport]:
    """Klein-Gordon and planar fourth-order FD residual convergence,
    plus the analytic kernel identity g_tt = c^2 g_uu + lam^2 g."""
    reports = []
    for dim in (2, 3):
        params = ModelParams(c=1.0, lam=1.0, dim=dim)
        reports.append(_residual_report(pde.klein_gordon_residual(params)))
    params2 = ModelParams(c=1.0, lam=1.0, dim=2)
    reports.append(_residual_report(
        pde.planar_fourth_order_residual(params2)))
    worst = 0.0
    for t, u in ((0.7, 0.2), (1.0, 0.5), (1.3, 1.1), (2.0, 0.3)):
        worst = max(worst, abs(kernel_identity_residual(params2, t, u)))
    reports.append(stats.bound_report(
        "kernel_identity_kgg", worst, 1e-10,
        detail="analytic residual at 4 kernel points"))
    return reports


def cf_recursions(seed: int) -> list[TestReport]:
    """Characteristic-function recursion residuals (O(h^2)) for every
    initial direction, plus exact-vs-Monte-Carlo CF agreement."""
    reports = []
    params = ModelParams(c=1.0, lam=1.0, dim=2)
    t = 1.0
    for n in (1, 2):
        for j in (1, 2, 3, 4):
            for a, b in _ANGLES:
                rr = pde.cf_recursion_check(params, n, j, (a, b), t)
                reports.append(_residual_report(rr))
    for n in (0, 1, 2):
        reports.extend(_cf_mc_reports(
            params, t, n, simulate.simulate_ensemble(
                params, t, _COUNT, seed + n, conditioning=n).positions))
    return reports


def _cf_mc_reports(params: ModelParams, t: float, n: int,
                   positions: np.ndarray) -> list[TestReport]:
    """Exact conditional CF vs the Monte Carlo mean of the phases."""
    reports = []
    for a, b in ((1.0, 0.0), (0.5, 0.5)):
        phases = np.exp(1j * (a * positions[:, 0] + b * positions[:, 1]))
        target = pde.average_cf(params, n, (a, b), t)
        z = max(abs(stats.z_score(phases.real, target.real)),
                abs(stats.z_score(phases.imag, target.imag)))
        reports.append(stats.bound_report(
            f"cf_quad_vs_mc_n{n}_a{a:g}_b{b:g}", z, 3.0,
            sample_size=_COUNT,
            detail=f"exact={target:.6f} mc={np.mean(phases):.6f}"))
    return reports


def heat_limit(seed: int) -> list[TestReport]:
    """Diffusive limit lam = c^2: per-coordinate variance -> t/dim."""
    return [pde.heat_limit_check(2, seed), pde.heat_limit_check(3, seed + 50)]


def _u_pair_report(dim_a: int, dim_b: int, n: int, seed: int,
                   blocking: bool) -> TestReport:
    ua = _sorted_u(dim_a, n, seed)
    return stats.ks_two_sample(
        ua, _sorted_u(dim_b, n, seed + 1),
        name=f"u{dim_a}_eq_u{dim_b}_n{n}", blocking=blocking)


def equality_in_law(seed: int) -> list[TestReport]:
    """Two-sample KS for the stated cross-dimension radius identities:
    U_1 = U_2 on even switch counts, U_2 = U_3 on odd ones."""
    return [
        _u_pair_report(1, 2, 2, seed + 0, blocking=True),
        _u_pair_report(1, 2, 4, seed + 2, blocking=True),
        _u_pair_report(2, 3, 3, seed + 4, blocking=True),
        _u_pair_report(2, 3, 5, seed + 6, blocking=True),
    ]


def equality_conjecture(seed: int) -> list[TestReport]:
    """The pairs U_d = U_{d+1} for d = 3, 4 at the smallest admissible
    switch count n = d+1, which would extend the proved d = 1, 2 pattern.

    They are false for this model.  Given N = n the class sums are
    t Dirichlet, and U/(ct) given N = d+1 is Beta(d, 2) in dim d but
    Beta(d+1, 1) in dim d+1.  The two CDFs differ by exactly
    (d/(d+1))^d in sup norm, 0.4219 at d = 3 and 0.4096 at d = 4, so
    the KS rows reject at every seed.  They keep their names and are
    never blocking.
    """
    return [
        _u_pair_report(d, d + 1, d + 1, seed + 2 * d, blocking=False)
        for d in (3, 4)
    ]


_REGISTRY: tuple[tuple[str, object], ...] = (
    ("distributions", boundary_mass_2d),
    ("distributions", strata_masses_3d),
    ("distributions", conditional_uniformity_2d),
    ("distributions", conditional_laws),
    ("moments", conditional_means_3d),
    ("distributions", normalization),
    ("moments", mean_moments_2d),
    ("distributions", representation_agreement),
    ("distributions", mixture_identity),
    ("pde", pde_residuals),
    ("pde", cf_recursions),
    ("limits", heat_limit),
    ("distributions", equality_in_law),
    ("conjecture", equality_conjecture),
)
# The groups in first-appearance order, then "all".
SUITE_NAMES = (*dict.fromkeys(group for group, _ in _REGISTRY), "all")


def run_suite(suite: str, seed: int) -> list[TestReport]:
    """Run a named suite (or ``all``) with per-criterion seed offsets."""
    if suite not in SUITE_NAMES:
        raise ValueError(
            f"unknown suite {suite!r}; choose from {', '.join(SUITE_NAMES)}")
    reports: list[TestReport] = []
    for i, (group, fn) in enumerate(_REGISTRY):
        if suite == "all" or group == suite:
            reports.extend(fn(seed + 1000 * i))
    return reports
