"""Modified Bessel functions and the motion kernel g(u,t).

Everything analytic in this package reduces to the kernel

    g(u, t) = I_0(xi),   xi = (lam/c)*sqrt(c^2 t^2 - u^2),

its partial derivatives in t and u, and integrals of u^m times those
derivatives over [0, ct].  The derivatives are evaluated through the
index-shifted power series

    g = sum_k a_k P^k,   P = c^2 t^2 - u^2,  a_k = (lam/(2c))^{2k} / (k!)^2,

whose term-wise derivatives never produce negative powers of P, so the
edge u = ct is a removable limit (only finitely many terms survive).

Series are accumulated in scaled space (each term carries e^{-xi}) so
that density formulas stay finite for lam*t in the hundreds; the
unscaled kernel derivative overflows to inf where I_0(xi) itself does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .model import ModelParams, require_horizon

_REL_TOL = 1e-17
_LOG_START_FLOOR = -680.0  # below this, start the series at its peak term


@dataclass(frozen=True)
class BesselOrder:
    """Order nu stored as 2*nu, so half-integer orders are exact."""

    twice_order: int

    def __post_init__(self):
        if self.twice_order < -1:
            raise ValueError("orders below -1/2 are not supported")

    @classmethod
    def of(cls, order) -> "BesselOrder":
        if isinstance(order, BesselOrder):
            return order
        twice = round(2 * order)
        if twice != 2 * order:
            raise ValueError(f"order must be integer or half-integer, got {order}")
        return cls(int(twice))

    @property
    def value(self) -> float:
        return self.twice_order / 2.0

    @property
    def is_integer(self) -> bool:
        return self.twice_order % 2 == 0


def _gamma_nu_plus_1(twice_nu: int) -> float:
    """Gamma(nu + 1) for integer or half-integer nu >= -1/2.

    Integer nu uses the exact factorial; half-integer nu uses the
    product Gamma(n + 1/2) = sqrt(pi) * prod_{i<n} (i + 1/2).
    """
    if twice_nu % 2 == 0:
        return float(math.factorial(twice_nu // 2))
    n = (twice_nu + 1) // 2  # Gamma(nu+1) = Gamma(n + 1/2)
    g = math.sqrt(math.pi)
    for i in range(n):
        g *= i + 0.5
    return g


def bessel_i(order, x: float) -> float:
    """Modified Bessel function I_nu(x) for x >= 0, nu >= -1/2.

    Integer and half-integer orders >= 3/2 use the all-positive power
    series sum_k (x/2)^{2k+nu} / (k! Gamma(k+nu+1)); nu = +-1/2 use the
    exact hyperbolic closed forms.  Overflows to inf where I_nu does.
    """
    ord_ = BesselOrder.of(order)
    if x < 0:
        raise ValueError("bessel_i requires x >= 0")
    nu = ord_.value
    if x == 0.0:
        if ord_.twice_order == 0:
            return 1.0
        if ord_.twice_order == -1:
            return math.inf
        return 0.0
    if ord_.twice_order == 1:
        return math.sqrt(2.0 / (math.pi * x)) * math.sinh(x)
    if ord_.twice_order == -1:
        return math.sqrt(2.0 / (math.pi * x)) * math.cosh(x)
    # Leading asymptotic size e^x/sqrt(2 pi x): bail out before the
    # partial sums overflow.
    if x - 0.5 * math.log(2 * math.pi * x) > 709.0:
        return math.inf
    half = 0.5 * x
    term = half ** nu / _gamma_nu_plus_1(ord_.twice_order)
    q = half * half
    total = 0.0
    k = 0
    while True:
        total += term
        term *= q / ((k + 1) * (k + 1 + nu))
        k += 1
        if term < _REL_TOL * total and k > half:
            return total + term


def bessel_i_scaled(order, x: float) -> float:
    """e^{-x} I_nu(x), finite for all x >= 0 (asymptotically ~1/sqrt(2 pi x))."""
    ord_ = BesselOrder.of(order)
    if x < 0:
        raise ValueError("bessel_i_scaled requires x >= 0")
    nu = ord_.value
    if x == 0.0:
        return bessel_i(ord_, 0.0)
    if ord_.twice_order == 1:
        return (1.0 - math.exp(-2.0 * x)) / math.sqrt(2.0 * math.pi * x)
    if ord_.twice_order == -1:
        return (1.0 + math.exp(-2.0 * x)) / math.sqrt(2.0 * math.pi * x)
    half = 0.5 * x
    q = half * half
    log_t0 = -x + nu * math.log(half) - math.lgamma(nu + 1.0)
    if log_t0 >= _LOG_START_FLOOR:
        term = math.exp(log_t0)
        total = 0.0
        k = 0
        while True:
            total += term
            term *= q / ((k + 1) * (k + 1 + nu))
            k += 1
            if term < _REL_TOL * total and k > half:
                return total + term
    # Start at the peak term k* ~ x/2 and sweep outward in both
    # directions; every term is positive so no cancellation occurs.
    k_star = max(1, int(half))
    log_peak = (-x + (2 * k_star + nu) * math.log(half)
                - math.lgamma(k_star + 1.0) - math.lgamma(k_star + nu + 1.0))
    peak = math.exp(log_peak)
    total = peak
    term = peak
    k = k_star
    while True:  # upward
        term *= q / ((k + 1) * (k + 1 + nu))
        k += 1
        total += term
        if term < _REL_TOL * peak:
            break
    term = peak
    k = k_star
    while k > 0:  # downward
        term *= k * (k + nu) / q
        k -= 1
        total += term
        if term < _REL_TOL * peak:
            break
    return total


@dataclass(frozen=True)
class KernelPoint:
    """Evaluation point (t, u) of the kernel, with 0 <= u <= ct."""

    params: ModelParams
    t: float
    u: float

    def __post_init__(self):
        if self.t < 0:
            raise ValueError("t must be >= 0")
        ct = self.params.c * self.t
        if not 0 <= self.u <= ct * (1 + 1e-12):
            raise ValueError(f"u={self.u} outside [0, ct]={ct}")

    @property
    def p_factor(self) -> float:
        """P = c^2 t^2 - u^2, computed as a product to keep the edge exact."""
        ct = self.params.c * self.t
        return max(0.0, (ct - self.u) * (ct + self.u))

    @property
    def xi(self) -> float:
        return (self.params.lam / self.params.c) * math.sqrt(self.p_factor)


def scaled_series(lam: float, c: float, t: float, u: float,
                  weights) -> tuple[list[float], float]:
    """Weighted sums of the scaled kernel series terms.

    Returns ``([sum_k b_k w(k) for w in weights], xi)`` with
    ``b_k = e^{-xi} (lam/(2c))^{2k} P^k / (k!)^2`` — the kernel series
    terms scaled by e^{-xi} so every partial sum stays bounded.
    """
    ct = c * t
    if not 0 <= u <= ct * (1 + 1e-12):
        raise ValueError(f"u={u} outside [0, ct]={ct}")
    xi = (lam / c) * math.sqrt(max(0.0, (ct - u) * (ct + u)))
    q = (0.5 * xi) ** 2
    sums = [0.0] * len(weights)
    if xi <= 680.0:
        b = math.exp(-xi)
        k = 0
        b_max = b
        while True:
            for m, w in enumerate(weights):
                sums[m] += b * w(k)
            b *= q / ((k + 1) * (k + 1))
            k += 1
            b_max = max(b_max, b)
            if b < _REL_TOL * b_max and k > 0.5 * xi:
                return sums, xi
    k_star = max(1, int(0.5 * xi))
    log_peak = -xi + 2 * k_star * math.log(0.5 * xi) - 2 * math.lgamma(k_star + 1.0)
    peak = math.exp(log_peak)
    for m, w in enumerate(weights):
        sums[m] += peak * w(k_star)
    b = peak
    k = k_star
    while True:
        b *= q / ((k + 1) * (k + 1))
        k += 1
        for m, w in enumerate(weights):
            sums[m] += b * w(k)
        if b < _REL_TOL * peak:
            break
    b = peak
    k = k_star
    while k > 0:
        b *= (k * k) / q
        k -= 1
        for m, w in enumerate(weights):
            sums[m] += b * w(k)
        if b < _REL_TOL * peak:
            break
    return sums, xi


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


def kernel_derivative(point: KernelPoint, t_order: int = 0,
                      u_order: int = 0, scaled: bool = False) -> float:
    """Partial derivative of g(u,t) of the given orders at ``point``.

    Supported orders: pure t-derivatives 0..3, pure u-derivatives 1..2,
    and the mixed (t_order=1, u_order=2).  Values are exact limits at
    u = ct.  Overflows to inf where I_0(xi) does (xi beyond ~709);
    ``scaled=True`` returns e^{-xi} times the derivative instead
    (xi = ``point.xi``), which is finite for every lam*t.
    """
    if (t_order, u_order) not in _ALLOWED_ORDERS:
        raise ValueError(f"unsupported derivative orders ({t_order}, {u_order})")
    B0, B1, B2, B3, xi = _kernel_sums_scaled(point)
    scale = 1.0 if scaled else math.exp(xi) if xi < 709.0 else math.inf
    c, t, u = point.params.c, point.t, point.u
    c2 = c * c
    if t_order == 0 and u_order == 0:
        base = B0
    elif t_order == 1 and u_order == 0:
        base = 2.0 * c2 * t * B1
    elif t_order == 2 and u_order == 0:
        base = 2.0 * c2 * B1 + 4.0 * c2 * c2 * t * t * B2
    elif t_order == 3 and u_order == 0:
        base = 12.0 * c2 * c2 * t * B2 + 8.0 * c2 ** 3 * t ** 3 * B3
    elif t_order == 0 and u_order == 1:
        base = -2.0 * u * B1
    elif t_order == 0 and u_order == 2:
        base = -2.0 * B1 + 4.0 * u * u * B2
    else:  # (1, 2)
        base = -4.0 * c2 * t * B2 + 8.0 * c2 * t * u * u * B3
    return base * scale


def kernel_identity_residual(point: KernelPoint) -> float:
    """Residual of the exact identity d2g/dt2 = c^2 d2g/du2 + lam^2 g.

    Evaluated from the analytic series (no differencing); rounding is
    the only contribution, so the relative size is ~1e-16.
    """
    lam, c = point.params.lam, point.params.c
    g = kernel_derivative(point, 0, 0)
    g_tt = kernel_derivative(point, 2, 0)
    g_uu = kernel_derivative(point, 0, 2)
    return g_tt - c * c * g_uu - lam * lam * g


_INTEGRAL_ORDERS = {0, 1, 2, 3}


def kernel_integral(params: ModelParams, t: float, m: int,
                    t_order: int = 0) -> float:
    """Closed form of the integral of u^m d^{t_order}g/dt^{t_order} over [0, ct].

    Supported: any m >= 0 with t_order in {0,1,2}, and m = 0 with
    t_order = 3.  The closed forms are Bessel expressions of (half-)
    integer order; tests check them against adaptive quadrature.
    """
    if m < 0 or t_order not in _INTEGRAL_ORDERS:
        raise ValueError(f"unsupported kernel_integral pair (m={m}, t_order={t_order})")
    if t_order == 3 and m != 0:
        raise ValueError("t_order=3 is only available for m=0")
    require_horizon(t, "t")
    lam, c = params.lam, params.c
    lt = lam * t
    ct = c * t
    a_big = 2.0 * c * c * t / lam
    gam = _gamma_nu_plus_1(m - 1)  # Gamma((m+1)/2)
    i_hi = bessel_i(BesselOrder(m + 1), lt)   # order (m+1)/2
    i_lo = bessel_i(BesselOrder(m - 1), lt)   # order (m-1)/2
    half_pow_hi = a_big ** (0.5 * (m + 1))
    if t_order == 0:
        return 0.5 * gam * half_pow_hi * i_hi
    if t_order == 1:
        return 0.5 * lam * gam * half_pow_hi * i_lo - c * ct ** m
    if t_order == 2:
        val = -0.5 * lam * lam * ct ** (m + 1) \
            + 0.5 * lam * lam * gam * half_pow_hi * i_hi
        if m > 0:
            half_pow_lo = a_big ** (0.5 * (m - 1))
            val += -m * c * c * ct ** (m - 1) \
                + m * gam * c * c * half_pow_lo * i_lo
        return val
    return 0.5 * c * lam * lam * (math.exp(lt) + math.exp(-lt)) \
        - lam * lam * c - lam ** 4 * c * t * t / 8.0
