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

Each layer is imported by its module name (``cyclic_motion.simulate``,
``cyclic_motion.laws``, ...); the root holds only ``__version__``, so
the sampler (``rng``, ``model``, ``simulate``) loads no scipy.
"""

__version__ = "0.1.0"
