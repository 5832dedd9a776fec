"""Cyclic orthogonal random motion at finite velocity.

A particle in R^d moves at constant speed c along one of the 2d signed
coordinate directions and, at the events of a rate-lambda Poisson
process, steps deterministically to the next direction of the fixed
cycle +e_1, ..., +e_d, -e_1, ..., -e_d.  The package simulates the
process, evaluates the closed-form laws of the L1 radius
U(t) = sum_i |X_i(t)| (Bessel-kernel densities, conditional laws,
moments), and machine-checks the governing identities: boundary-stratum
masses, Klein-Gordon and fourth-order PDE residuals,
characteristic-function recursions, and the diffusive limit.
"""

from .bessel import (bessel_i_scaled, kernel_derivative,
                     kernel_identity_residual, kernel_integral)
from .laws import (ConditionalLaw, SingularStratumError, StratumMass,
                   ac_mass, cdf_u, conditional_mean_u, density_u,
                   density_u_closed_form, density_u_from_coefficients,
                   mean_u, mixture_density, moment_u, singular_masses)
from .model import (Direction, ModelParams, classify_stratum, face_label,
                    stratum_labels)
from .pde import (ResidualReport, average_cf, cf_recursion_check,
                  conditional_cf, heat_limit_check,
                  klein_gordon_residual, normalization_check,
                  planar_fourth_order_residual)
from .simulate import (MotionOutcome, MotionPath, SampleSet, evolve,
                       sample_path, sample_path_conditional,
                       simulate_ensemble)
from .stats import (TestReport, chi_square_masses, ks_one_sample,
                    ks_two_sample, moment_compare)
from .verify import run_suite

__version__ = "0.1.0"

__all__ = [
    "bessel_i_scaled", "kernel_derivative", "kernel_identity_residual",
    "kernel_integral",
    "ConditionalLaw", "SingularStratumError", "StratumMass", "ac_mass",
    "cdf_u", "conditional_mean_u", "density_u", "density_u_closed_form",
    "density_u_from_coefficients", "mean_u", "mixture_density", "moment_u",
    "singular_masses", "Direction", "ModelParams", "classify_stratum",
    "face_label", "stratum_labels", "ResidualReport",
    "average_cf", "cf_recursion_check", "conditional_cf", "heat_limit_check",
    "klein_gordon_residual", "normalization_check",
    "planar_fourth_order_residual", "MotionOutcome", "MotionPath",
    "SampleSet", "evolve", "sample_path", "sample_path_conditional",
    "simulate_ensemble", "TestReport",
    "chi_square_masses", "ks_one_sample", "ks_two_sample", "moment_compare",
    "run_suite", "__version__",
]
