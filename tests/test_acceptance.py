"""Acceptance suite: one test per advertised guarantee of the toolkit.

Each test fixes its seeds and asserts the stated tolerance.  Several
simulation-vs-closed-form comparisons fail on this build and are left
failing deliberately: the closed-form conditional laws for dimensions
two and three do not match the process the simulator (or any faithful
reading of the model) produces, and the fourth-order operator does not
annihilate the coarea point field.  The regression tests in
test_simulate.py and test_pde.py pin the observed behaviour; README.md
carries the status table.  Do not loosen tolerances here.
"""

import numpy as np
import pytest

from cyclic_motion import verify


def assert_all_pass(reports):
    failing = [r.line() for r in reports if not r.passed]
    assert not failing, "failing checks:\n" + "\n".join(failing)


def test_criterion_01_boundary_mass_2d():
    # P(stratum != interior) at lam=c=t=1 equals 2/e within 3 sigma
    assert_all_pass(verify.boundary_mass_2d(seed=101))


def test_criterion_02_strata_masses_3d():
    # chi-square over {vertex, edge, face, interior} masses at
    # lam*t in {0.5, 1, 2}, plus per-vertex uniformity, level 0.01
    assert_all_pass(verify.strata_masses_3d(seed=202))


def test_criterion_03_conditional_uniformity_2d():
    # U/(ct) given exactly two switches vs Uniform(0,1), KS p > 0.01
    assert_all_pass(verify.conditional_uniformity_2d(seed=303))


def test_criterion_04_conditional_laws():
    # one-sample KS against the closed-form conditional radius laws,
    # dims 2 and 3, n = 3..6, level 0.01
    assert_all_pass(verify.conditional_laws(seed=404))


def test_criterion_05_conditional_means_simulated():
    # simulated E[U | N=n] for n = 3, 4, 5 in dimension 3 vs the
    # closed-form table (9/16, 5/8, 5/12)*ct within 3 sigma
    reports = verify.conditional_means_3d(seed=505)
    assert_all_pass([r for r in reports if r.name.startswith(
        "conditional_mean_mc")])


def test_criterion_05_conditional_means_quadrature():
    # the closed-form table matches direct quadrature of the
    # conditional densities to 1e-10 for every n <= 12
    reports = verify.conditional_means_3d(seed=505)
    assert_all_pass([r for r in reports
                     if r.name == "conditional_mean_quadrature_3d"])


def test_criterion_06_normalization():
    # interior quadrature + shell masses sum to 1 within 1e-8,
    # dims 2 and 3, lam*t in {0.5, 1, 2, 5}
    assert_all_pass(verify.normalization())


def test_criterion_07_mean_moments_analytic():
    # closed-form mean and moments vs the quadrature-plus-atoms oracle
    # (1e-8, m <= 6); moment_u(0) = 1 and moment_u(1) = mean_u exactly
    reports = verify.mean_moments_2d(seed=707)
    assert_all_pass([r for r in reports if r.name != "mean_vs_mc_2d"])


def test_criterion_07_mean_vs_simulation():
    # closed-form mean vs the Monte-Carlo mean within 3 sigma
    reports = verify.mean_moments_2d(seed=707)
    assert_all_pass([r for r in reports if r.name == "mean_vs_mc_2d"])


def test_criterion_08_representation_agreement():
    # series, coefficient, and Bessel-pair forms of the densities agree
    # pointwise to 1e-9 relative on 1000 interior points per dimension
    assert_all_pass(verify.representation_agreement(seed=808))


def test_criterion_09_mixture_identity():
    # sum over n of P(N=n) * conditional density reproduces the
    # unconditional density to 1e-8 (dims 2 and 3, lam*t <= 2, n <= 60)
    assert_all_pass(verify.mixture_identity())


def test_criterion_10_klein_gordon_convergence():
    # second-order FD residual of p_tt + 2 lam p_t - c^2 p_uu on the
    # radius density converges at order 2.0 +/- 0.3 over 3 refinements
    reports = verify.pde_residuals()
    kg = [r for r in reports if r.name.startswith("klein_gordon")]
    assert len(kg) == 2
    assert_all_pass(kg)


def test_criterion_10_fourth_order_point_field():
    # the full fourth-order operator residual on the coarea point field
    # f = p/(4u) converges at order 2.0 +/- 0.3
    reports = verify.pde_residuals()
    assert_all_pass([r for r in reports
                     if r.name == "planar_fourth_order_point"])


def test_criterion_10_kernel_identity():
    # the analytic identity g_tt = c^2 g_uu + lam^2 g holds to 1e-10
    reports = verify.pde_residuals()
    assert_all_pass([r for r in reports if r.name == "kernel_identity_kgg"])


def test_criterion_11_cf_recursions():
    # characteristic-function recursion residuals vanish at O(h^2) for
    # n in {1, 2}, every initial direction, three angle pairs; and the
    # quadrature CF matches the Monte-Carlo CF within 3 sigma
    reports = verify.cf_recursions(seed=1111)
    assert len([r for r in reports if r.name.startswith("cf_recursion")]) == 24
    assert len([r for r in reports if r.name.startswith("cf_quad")]) == 6
    assert_all_pass(reports)


def test_criterion_12_heat_limit():
    # lam = c^2 schedule c in {8, 16, 32}: per-coordinate variance
    # approaches t/dim within 5% at c=32 with monotone error decay
    assert_all_pass(verify.heat_limit(seed=1212))


def test_criterion_13_equality_in_law():
    # two-sample KS at level 0.01, 1e5 samples per side: U_1 = U_2 given
    # an even switch count, U_2 = U_3 given an odd one
    assert_all_pass(verify.equality_in_law(seed=1313))


def test_criterion_13_conjecture_support(capsys):
    # the conjectured pairs U_3 = U_4 and U_4 = U_5 are run and reported
    # but never gate the build: only the report structure is asserted
    reports = verify.equality_conjecture(seed=1313)
    assert [r.name for r in reports] == ["u3_eq_u4_n4", "u4_eq_u5_n5"]
    assert all(not r.blocking for r in reports)
    with capsys.disabled():
        print()
        for r in reports:
            print("conjecture support:", r.line())
