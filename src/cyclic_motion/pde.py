"""Finite-difference verification of the governing differential identities.

Checks implemented:

* Klein-Gordon factor equation on the layer density p(u,t):
  (d/dt + lam)^2 p - c^2 d2p/du2 - lam^2 p = 0 (dims 2 and 3);
* the planar fourth-order operator
  [(d/dt+lam)^2 - c^2 dxx][(d/dt+lam)^2 - c^2 dyy] f = lam^4 f
  on the point field f(x,y,t) = p(|x|+|y|, t)/(4(|x|+|y|)) (the coarea
  conversion of the layer density) and, as a positive control, on the
  layer parametrization h(x,y,t) = p(x+y, t);
* characteristic-function recursions d F_n/dt = F_{n-1} + ic theta F_n
  for the order-statistics time integrals, on the exact conditional CF
  (a divided difference of exp, as a matrix exponential) in any dim;
* the diffusive (heat) limit lam = c^2, c -> inf, of the per-coordinate
  position variance;
* normalization of the interior density against the shell masses.

Every differenced residual is reported with a least-squares convergence
order over a refinement schedule (expected ~2 for the O(h^2) stencils).

The fourth-order operator is the product that the four forward equations
(d/dt + lam + c d_j.grad) p_j = lam p_{j-1} give, and the simulated planar
density is constant on each level set |x|+|y| = u (a one-sample KS of the
position along two level sets against the uniform law, for N=3, N=4 and
unconditioned at 4e5 paths, does not reject).  So p/(4u) is the exact point
density whenever p is the true density of U.  The point-field residual
plateaus because ``laws.density_u`` is not the law of the simulated U
(the cause shared by the failing conditional-law checks), not because of
the 1/(4u) coarea factor.

`density_moment` is the one quadrature oracle here.  It imports
`scipy.integrate`, and `conditional_cf` imports `scipy.linalg`, when
first called, so importing this module loads numpy and `scipy.special`
only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import laws, simulate
from .model import Direction, ModelParams, require_horizon
from .stats import TestReport


@dataclass(frozen=True)
class GridSpec:
    """Evaluation grid for residual checks.

    Points stay inside u in [margin, 1-margin]*ct for every stencil
    offset at every level; ``h`` is the coarsest spacing and each of
    the ``levels`` refinements halves it.
    """

    t_start: float
    t_stop: float
    margin: float = 0.2
    h: float = 0.02
    levels: int = 3
    n_t: int = 3
    n_u: int = 5

    def __post_init__(self):
        if not 0 < self.margin < 0.5:
            raise ValueError("margin must be in (0, 0.5)")
        if self.levels < 2:
            raise ValueError("need at least 2 refinement levels")
        if not 0 < self.t_start <= self.t_stop:
            raise ValueError("need 0 < t_start <= t_stop")
        if self.h <= 0:
            raise ValueError("h must be > 0")

    @property
    def h_values(self) -> tuple[float, ...]:
        return tuple(self.h / 2 ** i for i in range(self.levels))


@dataclass
class ResidualReport:
    """Per-level residuals of a differenced identity plus fitted order."""

    name: str
    h_values: list[float]
    max_abs: list[float]
    order: float = field(init=False)

    def __post_init__(self):
        logs_h = np.log(np.asarray(self.h_values))
        logs_r = np.log(np.maximum(np.asarray(self.max_abs), 1e-300))
        self.order = float(np.polyfit(logs_h, logs_r, 1)[0])

    def converged(self, target: float = 2.0, tol: float = 0.3) -> bool:
        return abs(self.order - target) <= tol

    def line(self) -> str:
        res = ", ".join(f"{r:.3g}" for r in self.max_abs)
        return f"{self.name}: order={self.order:.2f} max_abs=[{res}]"


def _kg_points(params: ModelParams, grid: GridSpec):
    """The t values and the u values; every pair of them is a point."""
    h_max = max(grid.h_values)
    ts = np.linspace(grid.t_start, grid.t_stop, grid.n_t)
    t_min = ts.min() - 2 * h_max
    if t_min <= 0:
        raise ValueError("t grid touches t=0 for the widest stencil")
    ct_min = params.c * t_min
    fracs = np.linspace(grid.margin, 1 - grid.margin, grid.n_u)
    return ts, fracs * ct_min


def klein_gordon_residual(params: ModelParams, grid: GridSpec) -> ResidualReport:
    """FD residual of (d/dt+lam)^2 p = c^2 d2p/du2 + lam^2 p on density_u.

    The lam^2 terms cancel exactly, leaving
    p_tt + 2 lam p_t - c^2 p_uu, differenced with central O(h^2)
    stencils at fixed points across the refinement levels.
    """
    lam, c = params.lam, params.c
    ts, us = _kg_points(params, grid)
    max_abs = []
    for h in grid.h_values:
        res = []
        for t in ts:
            p_cc = laws.density_u(params, t, us)
            p_tp = laws.density_u(params, t + h, us)
            p_tm = laws.density_u(params, t - h, us)
            p_up = laws.density_u(params, t, us + h)
            p_um = laws.density_u(params, t, us - h)
            res.append((p_tp - 2 * p_cc + p_tm) / h ** 2
                       + lam * (p_tp - p_tm) / h
                       - c * c * (p_up - 2 * p_cc + p_um) / h ** 2)
        arr = np.abs(np.concatenate(res))
        max_abs.append(float(arr.max()))
    return ResidualReport(name=f"klein_gordon_dim{params.dim}",
                          h_values=list(grid.h_values),
                          max_abs=max_abs)


def _point_field(params: ModelParams):
    def f(t, x, y):
        u = np.abs(x) + np.abs(y)
        return laws.density_u(params, t, u) / (4.0 * u)
    return f


def _layer_field(params: ModelParams):
    def f(t, x, y):
        return laws.density_u(params, t, x + y)
    return f


_FIELDS = {"point": _point_field, "layer": _layer_field}


# 5-point central stencils over offsets -2..2 (multiply by h^-order).
_D0 = np.array([0.0, 0.0, 1.0, 0.0, 0.0])
_D1 = np.array([0.0, -0.5, 0.0, 0.5, 0.0])
_D2 = np.array([0.0, 1.0, -2.0, 1.0, 0.0])
_D3 = np.array([-0.5, 1.0, 0.0, -1.0, 0.5])
_D4 = np.array([1.0, -4.0, 6.0, -4.0, 1.0])


def _fourth_order_weights(params: ModelParams, h: float) -> np.ndarray:
    """Weight tensor of the composite operator minus lam^4 I.

    [(d/dt+lam)^2 - c^2 dxx][(d/dt+lam)^2 - c^2 dyy] - lam^4
      = dt^4 + 4 lam dt^3 + 6 lam^2 dt^2 + 4 lam^3 dt
        - c^2 (dt^2 + 2 lam dt + lam^2)(dxx + dyy) + c^4 dxx dyy
    (the lam^4 constant cancels).  Each factor is discretized with the
    central stencils above; the result is a 5x5x5 tensor over
    (t, x, y) offsets of -2h..2h.
    """
    lam, c = params.lam, params.c
    t4 = _D4 / h ** 4 + 4 * lam * _D3 / h ** 3 \
        + 6 * lam ** 2 * _D2 / h ** 2 + 4 * lam ** 3 * _D1 / h
    a_op = _D2 / h ** 2 + 2 * lam * _D1 / h + lam ** 2 * _D0
    d2 = _D2 / h ** 2
    w = np.einsum("a,b,c->abc", t4, _D0, _D0)
    w -= c * c * np.einsum("a,b,c->abc", a_op, d2, _D0)
    w -= c * c * np.einsum("a,b,c->abc", a_op, _D0, d2)
    w += c ** 4 * np.einsum("a,b,c->abc", _D0, d2, d2)
    return w


def _fourth_order_points(params: ModelParams, t: float, h_max: float,
                         margin: float, n_pts: int):
    ct_min = params.c * (t - 2 * h_max)
    lo = margin * ct_min + 2 * h_max
    hi = (1 - margin) * ct_min - 2 * h_max
    if not (t - 2 * h_max > 0 and lo < hi):
        raise ValueError("grid too coarse: stencil leaves the admissible strip")
    us = np.linspace(lo, hi, n_pts)
    # split each u into unequal (x, y) to avoid accidental symmetry
    return 0.35 * us, 0.65 * us


def planar_fourth_order_residual(params: ModelParams, grid: GridSpec,
                                 f_field: str = "point") -> ResidualReport:
    """FD residual of the planar fourth-order equation on a field f(t,x,y).

    ``f_field="point"`` (the default) is the coarea point field
    p(|x|+|y|, t)/(4(|x|+|y|)); ``f_field="layer"`` is the layer
    parametrization p(x+y, t), which satisfies the operator identity
    exactly (positive control of the machinery).
    """
    if params.dim != 2:
        raise ValueError("the fourth-order operator is planar (dim 2)")
    if f_field not in _FIELDS:
        raise ValueError(f"f_field must be one of {sorted(_FIELDS)}")
    f = _FIELDS[f_field](params)
    t0 = 0.5 * (grid.t_start + grid.t_stop)
    h_max = max(grid.h_values)
    xs, ys = _fourth_order_points(params, t0, h_max, grid.margin, grid.n_u)
    offsets = np.arange(-2, 3)
    max_abs = []
    for h in grid.h_values:
        w = _fourth_order_weights(params, h)
        # cube[p, a, b, c]: point p shifted by offsets (a, b, c) in (t, x, y)
        x = xs[:, None, None] + offsets[:, None] * h
        y = ys[:, None, None] + offsets * h
        cube = np.stack([f(t0 + dt * h, x, y) for dt in offsets], axis=1)
        arr = np.abs((w * cube).reshape(xs.size, -1).sum(axis=1))
        max_abs.append(float(arr.max()))
    return ResidualReport(name=f"planar_fourth_order_{f_field}",
                          h_values=list(grid.h_values),
                          max_abs=max_abs)


# Largest n of `conditional_cf`: its expm is (n+1) x (n+1), so time
# grows like n^3 (0.3 s at n = 400, 4 s at n = 1000) and memory like n^2.
MAX_CF_SWITCHES = 500


def cf_theta(k: int, j: int, omega) -> float:
    """theta_k = <omega, direction of the k-th segment> for initial
    direction j (k = 1 is j itself); ``len(omega)`` is the dimension."""
    dim = len(omega)
    d = Direction((j + k - 2) % (2 * dim) + 1, dim)
    return d.sign * omega[d.axis]


def conditional_cf(params: ModelParams, n: int, j: int, omega,
                   t: float) -> complex:
    """G_n = E[exp(i <omega, X(t)>) | N(t)=n, initial direction j].

    The segment lengths are t Dirichlet(1, ..., 1), so by the
    Hermite-Genocchi formula G_n = n! e[z_1..z_{n+1}], the divided
    difference of exp at z_k = i c t theta_k.  That is the corner entry
    of expm(diag(z) + diag(1..n, k=1)); the superdiagonal 1..n carries
    the n! (with ones, the entry is lost to rounding by n ~ 20).
    """
    from scipy.linalg import expm  # here, not at the top: start-up time
    t = require_horizon(t, "t")
    if len(omega) != params.dim:
        raise ValueError(f"omega must have dim={params.dim} components")
    if not np.all(np.isfinite(omega)):
        raise ValueError(f"omega must be finite, got {tuple(omega)}")
    Direction(j, params.dim)  # rejects j outside 1..2d
    if not 0 <= n <= MAX_CF_SWITCHES:
        raise ValueError(f"n must be in 0..{MAX_CF_SWITCHES}, got {n}")
    z = [1j * params.c * t * cf_theta(k, j, omega) for k in range(1, n + 2)]
    return complex(expm(np.diag(z) + np.diag(np.arange(1.0, n + 1), 1))[0, n])


def average_cf(params: ModelParams, n: int, omega, t: float) -> complex:
    """G_n averaged over the uniform initial direction."""
    return sum(conditional_cf(params, n, j, omega, t)
               for j in range(1, params.n_directions + 1)) / params.n_directions


def cf_recursion_check(params: ModelParams, n: int, j: int, omega, t: float,
                       h_values=(0.02, 0.01, 0.005)) -> ResidualReport:
    """FD check of d F_n/dt = F_{n-1} + i c theta_{n+1} F_n (n >= 1).

    F_n = t^n/n! G_n are the unnormalized order-statistics integrals;
    the t-derivative is central-differenced from `conditional_cf`, so
    the residual shrinks at O(h^2).
    """
    if n < 1:
        raise ValueError("the recursion needs n >= 1")

    def f_n(m: int, tt: float) -> complex:
        return tt ** m / math.factorial(m) * conditional_cf(
            params, m, j, omega, tt)

    th = cf_theta(n + 1, j, omega)
    max_abs = []
    for h in h_values:
        dfdt = (f_n(n, t + h) - f_n(n, t - h)) / (2 * h)
        r = abs(dfdt - f_n(n - 1, t) - 1j * params.c * th * f_n(n, t))
        max_abs.append(r)
    tag = "_".join(f"{name}{w:g}" for name, w in zip("abcdefgh", omega))
    return ResidualReport(name=f"cf_recursion_n{n}_j{j}_{tag}",
                          h_values=list(h_values), max_abs=max_abs)


def heat_limit_check(dim: int, t: float, c_schedule, count: int,
                     seed: int) -> TestReport:
    """Diffusive limit: with lam = c^2, per-coordinate Var -> t/dim.

    Passes iff the largest-c variance is within 5% of the target and
    the error sequence is non-increasing along the schedule within
    3-standard-error Monte Carlo noise bands.
    """
    target = t / dim
    errs, noises, details = [], [], []
    for i, c in enumerate(c_schedule):
        params = ModelParams(c=float(c), lam=float(c) ** 2, dim=dim)
        samples = simulate.simulate_ensemble(params, t, count, seed + i)
        var = float(np.var(samples.positions[:, 0], ddof=1))
        err = abs(var - target)
        noise = var * math.sqrt(2.0 / (count - 1))
        errs.append(err)
        noises.append(noise)
        details.append(f"c={c}: var={var:.5f} err={err:.2e}")
    final_ok = errs[-1] <= 0.05 * target
    monotone_ok = all(errs[i + 1] <= errs[i] + 3 * (noises[i] + noises[i + 1])
                      for i in range(len(errs) - 1))
    return TestReport(
        name=f"heat_limit_dim{dim}", statistic=errs[-1] / target,
        p_value=None, tolerance=0.05,
        passed=bool(final_ok and monotone_ok), sample_size=count,
        detail="; ".join(details) + f"; monotone={monotone_ok}")


def density_moment(params: ModelParams, t: float, m: int = 0) -> float:
    """The quadrature oracle: integral of u^m density_u(u) over (0, ct)."""
    from scipy import integrate  # here, not at the top: ~0.6 s of start-up
    ct = params.c * t
    val, _ = integrate.quad(
        lambda x: x ** m * laws.density_u(params, t, x), 0.0, ct,
        points=[ct * (1.0 - 1e-6)], epsabs=1e-12, epsrel=1e-12, limit=200)
    return val


def normalization_check(params: ModelParams, t: float,
                        tol: float = 1e-8) -> TestReport:
    """Quadrature of density_u against 1 - sum of shell masses."""
    total = density_moment(params, t)
    expected = laws.ac_mass(params, t)
    err = abs(total - expected)
    return TestReport(
        name=f"normalization_dim{params.dim}_lt{params.lam * t:g}",
        statistic=err, p_value=None, tolerance=tol, passed=bool(err < tol),
        sample_size=None,
        detail=f"quadrature={total:.10f} expected={expected:.10f}")
