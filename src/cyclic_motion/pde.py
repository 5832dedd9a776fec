"""The numbers behind the governing-equation checks; `verify` judges them.

* Finite-difference residuals of the Klein-Gordon factor equation on the
  layer density p(u,t):
  (d/dt + lam)^2 p - c^2 d2p/du2 - lam^2 p = 0 (dims 2 and 3);
* residuals of the planar fourth-order operator
  [(d/dt+lam)^2 - c^2 dxx][(d/dt+lam)^2 - c^2 dyy] f = lam^4 f
  on the point field f(x,y,t) = p(|x|+|y|, t)/(4(|x|+|y|)) (the coarea
  conversion of the layer density) and, as a positive control, on the
  layer parametrization h(x,y,t) = p(x+y, t);
* residuals of the characteristic-function recursions
  d F_n/dt = F_{n-1} + ic theta F_n for the order-statistics time
  integrals, on the exact conditional CF (a divided difference of exp,
  as a matrix exponential) in any dim;
* the quadrature oracle `density_moment`.

Each residual function returns ``(h_values, max_abs)``, the largest
absolute residual at each step of a refinement schedule.  `verify` fits
their order (about 2 for these O(h^2) stencils) and names every row.

The fourth-order operator is the product that the four forward equations
(d/dt + lam + c d_j.grad) p_j = lam p_{j-1} give.  Given N = n, the
simulated position is uniform on each level set |x|_1 = u only while
n <= 2d: KS of |X_1|/U against Beta(1, d-1), its law under that
uniformity, does not reject for d <= n <= 2d and gives p < 1e-20 at
n = 8 in dims 2 and 3 (1e5 conditioned paths).  So even for the true
density p of U, p/(4u) is the planar point density only up to the paths
with N > 4 (P(N >= 5) ~ 0.0037 at lam*t = 1).  The point-field residual
plateaus because ``laws.density_u`` is not the law of the simulated U,
the cause shared by the failing conditional-law checks.

`density_moment` is the one quadrature oracle here: a fixed 64-node
Gauss-Legendre rule whose nodes come from numpy's ``leggauss`` on first
use, so no check loads `scipy.integrate`.  `conditional_cf` imports
`scipy.linalg` when first called, so importing this module loads numpy
and `scipy.special` only.
"""

from __future__ import annotations

import functools
import math

import numpy as np
from numpy.polynomial.legendre import leggauss

from . import laws
from .model import (_SCALE, Direction, ModelParams, cycle_index,
                    require_horizon, require_int)

# The Klein-Gordon check evaluates at _N_T horizons in _KG_T and the
# planar fourth-order check at _F_T0, with _LEVELS step sizes halving from
# _KG_H and _F_H.  Both take _N_U radii in [_MARGIN, 1-_MARGIN]*ct at the
# smallest horizon the widest stencil reaches.
_KG_T, _KG_H = (0.8, 1.2), 0.02
_F_T0, _F_H = 1.0, 0.04
_N_T = 3
_N_U = 5
_MARGIN = 0.2
_LEVELS = 3


def _h_values(h: float) -> list[float]:
    return [h / 2 ** i for i in range(_LEVELS)]


def klein_gordon_residual(params: ModelParams) -> tuple[list, list]:
    """FD residual of (d/dt+lam)^2 p = c^2 d2p/du2 + lam^2 p on density_u.

    The lam^2 terms cancel exactly, leaving
    p_tt + 2 lam p_t - c^2 p_uu, differenced with central O(h^2)
    stencils at fixed points across the refinement levels.
    """
    lam, c = params.lam, params.c
    h_values = _h_values(_KG_H)
    ts = np.linspace(*_KG_T, _N_T)  # every (t, u) pair is a point
    us = np.linspace(_MARGIN, 1 - _MARGIN, _N_U) * (c * (_KG_T[0] - 2 * _KG_H))
    max_abs = []
    for h in h_values:
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
    return h_values, max_abs


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


def _fourth_order_points(params: ModelParams):
    ct_min = params.c * (_F_T0 - 2 * _F_H)
    lo = _MARGIN * ct_min + 2 * _F_H
    hi = (1 - _MARGIN) * ct_min - 2 * _F_H
    if not lo < hi:  # c below about 0.29
        raise ValueError(f"c={params.c:g} too small: the stencil leaves "
                         "the admissible strip")
    us = np.linspace(lo, hi, _N_U)
    # split each u into unequal (x, y) to avoid accidental symmetry
    return 0.35 * us, 0.65 * us


def planar_fourth_order_residual(params: ModelParams,
                                 f_field: str = "point") -> tuple[list, list]:
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
    xs, ys = _fourth_order_points(params)
    offsets = np.arange(-2, 3)
    h_values = _h_values(_F_H)
    max_abs = []
    for h in h_values:
        w = _fourth_order_weights(params, h)
        # cube[p, a, b, c]: point p shifted by offsets (a, b, c) in (t, x, y)
        x = xs[:, None, None] + offsets[:, None] * h
        y = ys[:, None, None] + offsets * h
        cube = np.stack([f(_F_T0 + dt * h, x, y) for dt in offsets], axis=1)
        arr = np.abs((w * cube).reshape(xs.size, -1).sum(axis=1))
        max_abs.append(float(arr.max()))
    return h_values, max_abs


# Largest n of `conditional_cf`: its expm is (n+1) x (n+1), so time
# grows like n^3 (0.3 s at n = 400, 4 s at n = 1000) and memory like n^2.
MAX_CF_SWITCHES = 500


def cf_theta(k: int, j: int, omega) -> float:
    """theta_k = <omega, direction of the k-th segment> for initial
    direction j (k = 1 is j itself); ``len(omega)`` is the dimension."""
    dim = len(omega)
    d = Direction(cycle_index(j, k - 1, 2 * dim), dim)
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
    t = require_horizon(t, "t", params)
    if len(omega) != params.dim:
        raise ValueError(f"omega must have dim={params.dim} components")
    if not np.all(np.isfinite(omega)):
        raise ValueError(f"omega must be finite, got {tuple(omega)}")
    # the largest phase c t |theta_k|; from about 1e39 expm turns NaN
    phase = params.c * t * float(np.max(np.abs(omega)))
    if phase > _SCALE:
        raise ValueError(f"c*t*max|omega_i|={phase:g} above the supported "
                         f"{_SCALE:g}")
    Direction(j, params.dim)  # rejects j outside 1..2d
    n = require_int(n, "n")
    if not 0 <= n <= MAX_CF_SWITCHES:
        raise ValueError(f"n must be in 0..{MAX_CF_SWITCHES}, got {n}")
    z = [1j * params.c * t * cf_theta(k, j, omega) for k in range(1, n + 2)]
    return complex(expm(np.diag(z) + np.diag(np.arange(1.0, n + 1), 1))[0, n])


def average_cf(params: ModelParams, n: int, omega, t: float) -> complex:
    """G_n averaged over the uniform initial direction."""
    return sum(conditional_cf(params, n, j, omega, t)
               for j in range(1, params.n_directions + 1)) / params.n_directions


def cf_recursion_check(params: ModelParams, n: int, j: int, omega,
                       t: float) -> tuple[list, list]:
    """FD residual of d F_n/dt = F_{n-1} + i c theta_{n+1} F_n (n >= 1).

    F_n = t^n/n! G_n are the unnormalized order-statistics integrals;
    the t-derivative is central-differenced from `conditional_cf`, so
    the residual shrinks at O(h^2).  ``t`` must exceed the largest step,
    0.02, so that every stencil point ``t - h`` is a horizon.
    """
    if n < 1:
        raise ValueError("the recursion needs n >= 1")
    t = require_horizon(t, "t", params)
    h_values = [0.02, 0.01, 0.005]
    if t <= h_values[0]:
        raise ValueError(f"t must exceed the largest step {h_values[0]}, "
                         f"got {t}")

    def f_n(m: int, tt: float) -> complex:
        return tt ** m / math.factorial(m) * conditional_cf(
            params, m, j, omega, tt)

    th = cf_theta(n + 1, j, omega)
    previous, here = f_n(n - 1, t), f_n(n, t)
    max_abs = []
    for h in h_values:
        dfdt = (f_n(n, t + h) - f_n(n, t - h)) / (2 * h)
        r = abs(dfdt - previous - 1j * params.c * th * here)
        max_abs.append(r)
    return h_values, max_abs


# Largest lam*t and m of `density_moment`.  The density peaks near u = 0
# with width about ct/sqrt(lam*t); up to 2000 the rule agrees with
# scipy's adaptive quad to 1e-13 relative for m <= 6, at 3000 only to
# 5e-12.  Every caller takes m in 0..6.
MAX_QUADRATURE_EVENTS = 1e3
MAX_QUADRATURE_MOMENT = 6


@functools.cache
def _legendre_rule() -> tuple[np.ndarray, np.ndarray]:
    """64 Gauss-Legendre nodes and weights on (-1, 1), made on first use."""
    return leggauss(64)


def _gauss_legendre(f, a: float, b: float) -> float:
    """Integral of f over (a, b) by the 64-node Gauss-Legendre rule,
    exact for polynomials of degree up to 127.  ``f`` is called once,
    on the array of nodes."""
    x, w = _legendre_rule()
    half = 0.5 * (b - a)
    return float(half * np.dot(w, f(a + half * (x + 1.0))))


def density_moment(params: ModelParams, t: float, m: int = 0) -> float:
    """The quadrature oracle: integral of u^m density_u(u) over (0, ct),
    by `_gauss_legendre`, for lam*t up to `MAX_QUADRATURE_EVENTS` and
    integer m in 0..`MAX_QUADRATURE_MOMENT`."""
    m = require_int(m, "m")
    if not 0 <= m <= MAX_QUADRATURE_MOMENT:
        raise ValueError(f"m must be in 0..{MAX_QUADRATURE_MOMENT}, got {m}")
    lt = params.lam * t
    if lt > MAX_QUADRATURE_EVENTS:
        raise ValueError(f"lam*t={lt:g} above the supported "
                         f"{MAX_QUADRATURE_EVENTS:g} of the quadrature oracle")
    return _gauss_legendre(lambda u: u ** m * laws.density_u(params, t, u),
                           0.0, params.c * t)

