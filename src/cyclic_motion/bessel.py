"""The motion kernel g(u,t) and its scaled Bessel ratios.

Everything analytic in this package reduces to the kernel

    g(u, t) = I_0(xi) = sum_k a_k P^k,   xi = (lam/c) sqrt(P),
    P = c^2 t^2 - u^2,   a_k = (lam/(2c))^{2k} / (k!)^2,

its partial derivatives in t and u, and integrals of u^m times those
derivatives over [0, ct].  The series' term-wise derivatives never
produce negative powers of P, so the edge u = ct is a removable limit,
and each is a combination of the ratios

    R_nu = e^{-xi} sum_k z^k / (k! (k+nu)!) = (2/xi)^nu ive(nu, xi),

z = xi^2/4, nu = 0..3, that `scaled_series` returns for a scalar or an
array of u.  They stay finite for every lam*t; an unscaled kernel
derivative is +-inf where its value overflows.  ``ive`` is scipy's AMOS
routine, under the name `bessel_i_scaled`.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import ive as bessel_i_scaled

from .model import (_SCALE, ModelParams, require_horizon, require_int,
                    require_lambda_t)

_REL_TOL = 1e-17
# Below this xi, R_nu is its two-term series e^{-xi} (1 + z/(nu+1)) / nu!,
# whose next term is below 1e-17 relative.  The ``ive`` ratio loses about
# nu |log xi| ulps at small xi (1.2e-14 at order 3 and xi = 3e-8).
_SMALL_XI = 1e-4
# Smallest lam*t of `laws.density_u_from_coefficients` and of the closed
# form: their O(lam) terms cancel down to the density, so the relative
# error grows like 1e-15/(lam*t) in dim 2 and 1e-14/(lam*t)^2 in dim 3
# (7.5e-11 at 1e-2), and the closed form's is 1e-9 at 1e-4, 0.1 at 1e-12.
MIN_COEFFICIENT_LAMBDA_T = 1e-2


def like_input(u, values):
    """``values`` as a float when ``u`` is a scalar, else as an array."""
    return float(values) if np.ndim(u) == 0 else values


def _check_u(ct: float, u) -> np.ndarray:
    """u as a float array, after checking that it lies in [0, ct]."""
    u = np.asarray(u, dtype=float)
    bad = ~((u >= 0) & (u <= ct * (1 + 1e-12)))
    if bad.any():
        raise ValueError(f"u={u[bad].flat[0]} outside [0, ct]={ct}")
    return u


def _unscaled(scaled, xi):
    """scaled * e^{xi}: +-inf where that overflows, 0 where scaled is 0."""
    with np.errstate(over="ignore", invalid="ignore"):
        value = scaled * np.exp(xi)
    return np.where(scaled == 0.0, 0.0, value)


def scaled_series(lam: float, c: float, t: float,
                  u) -> tuple[list[np.ndarray], np.ndarray]:
    """The scaled Bessel ratios of the kernel series, for scalar or array u.

    Returns ``([R_0, R_1, R_2, R_3], xi)`` as arrays shaped like ``u``,
    with R_nu = e^{-xi} sum_k z^k / (k! (k+nu)!) = (2/xi)^nu ive(nu, xi)
    and z = xi^2/4; below ``_SMALL_XI`` the two-term series stands in
    for the ratio, exactly 1/nu! at the edge xi = 0.  ``t`` must be
    finite and >= 0, lam/c at most ``model._SCALE`` (the callers form
    its square) and u in [0, ct].
    """
    if not (t >= 0 and math.isfinite(t)):
        raise ValueError(f"t must be finite and >= 0, got {t}")
    require_lambda_t(lam, t)
    if lam > _SCALE * c:
        raise ValueError(f"lam/c={lam / c:g} above the supported {_SCALE:g}")
    ct = c * t
    u = _check_u(ct, u)
    xi = (lam / c) * np.sqrt(np.maximum(0.0, (ct - u) * (ct + u)))
    small = xi < _SMALL_XI
    x = np.where(small, 1.0, xi)
    z, tail = 0.25 * xi * xi, np.exp(-xi)
    return [np.where(small, tail * (1.0 + z / (nu + 1)) / math.factorial(nu),
                     (2.0 / x) ** nu * bessel_i_scaled(nu, x))
            for nu in range(4)], xi


def _kernel_sums_scaled(params: ModelParams, t: float, u):
    """Scaled sums (B0..B3, xi) of the four derivative series.

    B0 = e^{-xi} sum a_k P^k and B1..B3 carry the extra per-term
    factors r/(k+1), r^2/((k+1)(k+2)), r^3/((k+1)(k+2)(k+3)) with
    r = lam^2/(4c^2), so B_j = r^j R_j; all t/u derivatives of g up to
    the supported orders are linear combinations of these.
    """
    if t:  # t = 0, the kernel's initial value, has no reach to check
        require_horizon(t, "t", params)
    lam, c = params.lam, params.c
    r = lam * lam / (4.0 * c * c)
    ratios, xi = scaled_series(lam, c, t, u)
    return (*(r ** j * ratio for j, ratio in enumerate(ratios)), xi)


_ALLOWED_ORDERS = {(0, 0), (1, 0), (2, 0), (3, 0), (0, 1), (0, 2), (1, 2)}


def _derivative(sums, c: float, t: float, u, t_order: int, u_order: int):
    """e^{-xi} times the (t_order, u_order) derivative, from B0..B3."""
    B0, B1, B2, B3 = sums
    u = np.asarray(u, dtype=float)
    c2 = c * c
    if t_order == 0 and u_order == 0:
        return B0
    if t_order == 1 and u_order == 0:
        return 2.0 * c2 * t * B1
    if t_order == 2 and u_order == 0:
        return 2.0 * c2 * B1 + 4.0 * c2 * c2 * t * t * B2
    if t_order == 3 and u_order == 0:
        return 12.0 * c2 * c2 * t * B2 + 8.0 * c2 ** 3 * t ** 3 * B3
    if t_order == 0 and u_order == 1:
        return -2.0 * u * B1
    if t_order == 0 and u_order == 2:
        return -2.0 * B1 + 4.0 * u * u * B2
    return -4.0 * c2 * t * B2 + 8.0 * c2 * t * u * u * B3  # (1, 2)


def kernel_derivative(params: ModelParams, t: float, u, t_order: int = 0,
                      u_order: int = 0, scaled: bool = False):
    """Partial derivative of g(u,t) of the given orders at (t, u).

    ``t >= 0`` and u (a scalar or an array) in [0, ct].  Supported
    orders: pure t-derivatives 0..3, pure u-derivatives 1..2, and the
    mixed (t_order=1, u_order=2).  Values are exact limits at u = ct.
    A float for a scalar u, else an array.  The value is +-inf where it
    overflows (xi beyond ~709) and 0 where it is 0; ``scaled=True``
    returns e^{-xi} times the derivative instead, which is finite for
    every lam*t.

    The orders (0, 2) and (1, 2) are differences of two terms, which
    cancel where the value crosses zero near u = ct/sqrt(lam*t) at
    large lam*t: at lam*t = 1e6 and u = 0.001 ct they are 1.3e-10 and
    1.6e-10 relative from mpmath, and ~1e-16 at 0.01 ct and 0.5 ct.
    """
    orders = require_int(t_order, "t_order"), require_int(u_order, "u_order")
    if orders not in _ALLOWED_ORDERS:
        raise ValueError(f"unsupported derivative orders {orders}")
    *sums, xi = _kernel_sums_scaled(params, t, u)
    value = _derivative(sums, params.c, t, u, *orders)
    return like_input(u, value if scaled else _unscaled(value, xi))


def kernel_identity_residual(params: ModelParams, t: float, u):
    """Residual of the exact identity d2g/dt2 = c^2 d2g/du2 + lam^2 g.

    Evaluated from one pass of the scaled series sums (no differencing);
    rounding is the only contribution: relative to
    |g_tt| + c^2 |g_uu| + lam^2 |g| it stayed below 7.3e-16 for lam*t
    from 1 to 1e6 and u/ct from 0 to 0.999.  Like the kernel itself, the
    residual is +-inf where e^{xi} overflows.
    """
    lam, c = params.lam, params.c
    *sums, xi = _kernel_sums_scaled(params, t, u)
    res = (_derivative(sums, c, t, u, 2, 0)
           - c * c * _derivative(sums, c, t, u, 0, 2)
           - lam * lam * _derivative(sums, c, t, u, 0, 0))
    return like_input(u, _unscaled(res, xi))


_INTEGRAL_ORDERS = {0, 1, 2, 3}
MAX_MOMENT = 1000  # largest m that kernel_integral takes
_LOG_MAX = math.log(np.finfo(float).max)


def _term(log_scale: float, nu: float, x: float, shift: float,
          scaled: bool = False) -> tuple[float, float]:
    """(sign, log|e^log_scale (F - 1 + shift)|) for F = 0F1(; nu+1; x^2/4),
    times e^{-x} when ``scaled``.

    F = Gamma(nu+1) (2/x)^nu I_nu(x) >= 1.  Where F is far past the
    shift (log F > 700), log(e^{-x} F) comes from ``ive`` and the shift
    is dropped; a scaled term never adds x back, so it loses nothing to
    the size of x.  log F <= x for nu >= -1/2 (F <= cosh x), so that
    takes x > 700.  Elsewhere F - 1 = sum_{k>=1} z^k / (k! (nu+1)_k),
    z = x^2/4, is summed term by term: every term is positive, so
    nothing cancels at small x (none is left at x = 0), and the terms
    stay below e^700.
    """
    ive = float(bessel_i_scaled(nu, x)) if x > 700.0 else 0.0
    if ive > 0.0:
        log_f = (math.lgamma(nu + 1.0) + nu * math.log(2.0 / x)
                 + math.log(ive))
        if log_f + x > 700.0:
            return 1.0, log_scale + (log_f if scaled else log_f + x)
    z = 0.25 * x * x
    term, f_minus_one, k = 1.0, 0.0, 0
    while term > _REL_TOL * f_minus_one:
        k += 1
        term *= z / (k * (nu + k))
        f_minus_one += term
    d = f_minus_one + shift
    return (math.copysign(1.0, d),
            log_scale + math.log(abs(d)) - (x if scaled else 0.0)
            if d else -math.inf)


def _sum_exp(terms) -> float:
    """sum of sign * e^log over (sign, log) pairs, +-inf where it overflows."""
    top = max(log for _, log in terms)
    if top == -math.inf:
        return 0.0
    total = sum(sign * math.exp(log - top) for sign, log in terms)
    if total == 0.0:
        return 0.0
    log = top + math.log(abs(total))
    return math.copysign(math.exp(log) if log < _LOG_MAX else math.inf, total)


def kernel_integral(params: ModelParams, t: float, m: int,
                    t_order: int = 0) -> float:
    """Closed form of the integral of u^m d^{t_order}g/dt^{t_order} over [0, ct].

    Supported: 0 <= m <= `MAX_MOMENT` with t_order in {0,1,2}, and m = 0
    with t_order = 3.  With x = lam*t, p = (m+1)/2 and the Bessel ratio
    F_nu = Gamma(nu+1) (2/x)^nu I_nu(x) = 0F1(; nu+1; x^2/4), they are

    * t_order 0: (ct)^(m+1) F_p / (m+1);
    * t_order 1: c (ct)^m (F_{p-1} - 1);
    * t_order 2: lam^2 (ct)^(m+1) (F_p/(m+1) - 1/2)
      + m c^2 (ct)^(m-1) (F_{p-1} - 1);
    * t_order 3: lam^2 c (F_{-1/2} - 1 - x^2/8).

    Each term is formed in log space, so no Gamma(p), I_p(x) or power
    of ct over- or underflows on its own: the value is finite wherever
    the integral is a float and +-inf where it overflows (lam*t beyond
    ~700 at small m).  Tests check the forms against quadrature.
    """
    m, t_order = require_int(m, "m"), require_int(t_order, "t_order")
    if not 0 <= m <= MAX_MOMENT or t_order not in _INTEGRAL_ORDERS:
        raise ValueError(f"unsupported kernel_integral pair (m={m}, t_order={t_order})")
    if t_order == 3 and m != 0:
        raise ValueError("t_order=3 is only available for m=0")
    require_horizon(t, "t", params)
    lam, c = params.lam, params.c
    x = require_lambda_t(lam, t)
    log_c, log_lam = math.log(c), math.log(lam)
    log_ct = log_c + math.log(t)
    p = 0.5 * (m + 1)
    if t_order == 0:
        terms = [_term((m + 1) * log_ct - math.log(m + 1), p, x, 1.0)]
    elif t_order == 1:
        terms = [_term(log_c + m * log_ct, p - 1, x, 0.0)]
    elif t_order == 2:
        terms = [_term(2 * log_lam + (m + 1) * log_ct - math.log(m + 1),
                       p, x, 0.5 * (1 - m))]
        if m > 0:
            terms.append(_term(math.log(m) + 2 * log_c + (m - 1) * log_ct,
                               p - 1, x, 0.0))
    else:
        terms = [_term(2 * log_lam + log_c, -0.5, x, -0.125 * x * x)]
    return _sum_exp(terms)
