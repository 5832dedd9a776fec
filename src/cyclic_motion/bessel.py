"""The motion kernel g(u,t) and its power series.

Everything analytic in this package reduces to the kernel

    g(u, t) = I_0(xi),   xi = (lam/c)*sqrt(c^2 t^2 - u^2),

its partial derivatives in t and u, and integrals of u^m times those
derivatives over [0, ct].  The derivatives are evaluated through the
index-shifted power series

    g = sum_k a_k P^k,   P = c^2 t^2 - u^2,  a_k = (lam/(2c))^{2k} / (k!)^2,

whose term-wise derivatives never produce negative powers of P, so the
edge u = ct is a removable limit (only finitely many terms survive).

`scaled_series` sums the series for a scalar or an array of u in one
array code path.  Each term carries e^{-xi}, so the sums stay finite
for every lam*t; an unscaled kernel derivative is +-inf where its value
overflows.  The modified Bessel functions themselves are scipy's AMOS
routine ``ive``, under the name `bessel_i_scaled`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ive as bessel_i_scaled

from .model import ModelParams, require_horizon

_REL_TOL = 1e-17
_BLOCK = 32  # series terms per array pass
# Largest lam*t of the Bessel layer (the sampler's ceiling too): scipy's
# ``ive`` returns NaN past x ~ 1e9, and the kernel series runs over
# O(sqrt(lam*t)) terms per point.
MAX_LAMBDA_T = 1e8


def like_input(u, values):
    """``values`` as a float when ``u`` is a scalar, else as an array."""
    return float(values) if np.ndim(u) == 0 else values


def require_lambda_t(lam: float, t: float) -> float:
    """lam*t, or ValueError above `MAX_LAMBDA_T`."""
    lt = lam * t
    if lt > MAX_LAMBDA_T:
        raise ValueError(f"lam*t={lt:g} above the supported {MAX_LAMBDA_T:g}")
    return lt


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


@dataclass(frozen=True)
class KernelPoint:
    """Kernel points (t, u): one t and a scalar or array u in [0, ct]."""

    params: ModelParams
    t: float
    u: float | np.ndarray

    def __post_init__(self):
        if not (self.t >= 0 and math.isfinite(self.t)):
            raise ValueError(f"t must be finite and >= 0, got {self.t}")
        _check_u(self.params.c * self.t, self.u)

    @property
    def p_factor(self):
        """P = c^2 t^2 - u^2, computed as a product to keep the edge exact."""
        ct = self.params.c * self.t
        u = np.asarray(self.u, dtype=float)
        return like_input(self.u, np.maximum(0.0, (ct - u) * (ct + u)))

    @property
    def xi(self):
        return (self.params.lam / self.params.c) * np.sqrt(self.p_factor)


def scaled_series(lam: float, c: float, t: float, u,
                  weights) -> tuple[list[np.ndarray], np.ndarray]:
    """Weighted sums of the scaled kernel series terms, for scalar or array u.

    Returns ``([sum_k b_k w(k) for w in weights], xi)`` as arrays shaped
    like ``u``, with ``b_k = e^{-xi} (lam/(2c))^{2k} P^k / (k!)^2`` — the
    kernel series terms scaled by e^{-xi} so every sum stays bounded.
    Each weight maps an array of k to per-term factors.

    The terms peak at k* = floor(xi/2) and fall monotonically on both
    sides, so each sum starts there and runs outward, ``_BLOCK`` terms a
    pass, until the terms drop below 1e-17 of the peak.  The terms are
    summed relative to the peak and normalised by sum_k b_k = ive(0, xi):
    a peak term taken from logs would lose ~xi ulps (1e-10 at xi = 1e5).
    """
    require_lambda_t(lam, t)
    ct = c * t
    u = _check_u(ct, u)
    xi = (lam / c) * np.sqrt(np.maximum(0.0, (ct - u) * (ct + u)))
    q = (0.5 * xi).ravel() ** 2
    peak = np.floor(0.5 * xi).ravel()
    sums = [np.ones_like(q)] + [w(peak) + np.zeros_like(q) for w in weights]
    # Up from k*, then down from k* (rows with k* = 0 have no terms below
    # it: they start at last = 0, and there q may be 0, hence max(q, 1)).
    for step, last in ((1, np.ones_like(q)), (-1, (peak > 0).astype(float))):
        k = peak
        offsets = step * np.arange(1, _BLOCK + 1)
        while last.any():
            ks = k[:, None] + offsets
            if step > 0:
                ratio = q[:, None] / (ks * ks)
            else:
                ratio = np.where(ks >= 0, (ks + 1) ** 2, 0.0) \
                    / np.maximum(q, 1.0)[:, None]
            terms = last[:, None] * np.cumprod(ratio, axis=1)
            terms[terms < _REL_TOL] = 0.0
            k_w = np.maximum(ks, 0)  # the terms below k = 0 are 0
            sums[0] += terms.sum(axis=1)
            for m, w in enumerate(weights, 1):
                sums[m] += (terms * w(k_w)).sum(axis=1)
            last, k = terms[:, -1], ks[:, -1]
    scale = bessel_i_scaled(0, xi.ravel()) / sums[0]
    return [(s * scale).reshape(xi.shape) for s in sums[1:]], xi


def _kernel_sums_scaled(point: KernelPoint):
    """Scaled sums (B0..B3, xi) of the four derivative series.

    B0 = e^{-xi} sum a_k P^k and B1..B3 carry the extra per-term
    factors r/(k+1), r^2/((k+1)(k+2)), r^3/((k+1)(k+2)(k+3)) with
    r = lam^2/(4c^2); all t/u derivatives of g up to the supported
    orders are linear combinations of these.
    """
    lam, c = point.params.lam, point.params.c
    r = lam * lam / (4.0 * c * c)
    weights = (
        lambda k: 1.0,
        lambda k: r / (k + 1),
        lambda k: r * r / ((k + 1) * (k + 2)),
        lambda k: r ** 3 / ((k + 1) * (k + 2) * (k + 3)),
    )
    sums, xi = scaled_series(lam, c, point.t, point.u, weights)
    return (*sums, xi)


_ALLOWED_ORDERS = {(0, 0), (1, 0), (2, 0), (3, 0), (0, 1), (0, 2), (1, 2)}


def _derivative(sums, point: KernelPoint, t_order: int, u_order: int):
    """e^{-xi} times the (t_order, u_order) derivative, from B0..B3."""
    B0, B1, B2, B3 = sums
    c, t = point.params.c, point.t
    u = np.asarray(point.u, dtype=float)
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


def kernel_derivative(point: KernelPoint, t_order: int = 0,
                      u_order: int = 0, scaled: bool = False):
    """Partial derivative of g(u,t) of the given orders at ``point``.

    Supported orders: pure t-derivatives 0..3, pure u-derivatives 1..2,
    and the mixed (t_order=1, u_order=2).  Values are exact limits at
    u = ct.  A float for a scalar ``point.u``, else an array.  The value
    is +-inf where it overflows (xi beyond ~709) and 0 where it is 0;
    ``scaled=True`` returns e^{-xi} times the derivative instead
    (xi = ``point.xi``), which is finite for every lam*t.
    """
    if (t_order, u_order) not in _ALLOWED_ORDERS:
        raise ValueError(f"unsupported derivative orders ({t_order}, {u_order})")
    *sums, xi = _kernel_sums_scaled(point)
    value = _derivative(sums, point, t_order, u_order)
    return like_input(point.u, value if scaled else _unscaled(value, xi))


def kernel_identity_residual(point: KernelPoint):
    """Residual of the exact identity d2g/dt2 = c^2 d2g/du2 + lam^2 g.

    Evaluated from one pass of the scaled series sums (no differencing);
    rounding is the only contribution, so the relative size is ~1e-16.
    Like the kernel itself, the residual is +-inf where e^{xi} overflows.
    """
    lam, c = point.params.lam, point.params.c
    *sums, xi = _kernel_sums_scaled(point)
    res = (_derivative(sums, point, 2, 0)
           - c * c * _derivative(sums, point, 0, 2)
           - lam * lam * _derivative(sums, point, 0, 0))
    return like_input(point.u, _unscaled(res, xi))


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
    if not 0 <= m <= MAX_MOMENT or t_order not in _INTEGRAL_ORDERS:
        raise ValueError(f"unsupported kernel_integral pair (m={m}, t_order={t_order})")
    if t_order == 3 and m != 0:
        raise ValueError("t_order=3 is only available for m=0")
    require_horizon(t, "t")
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
