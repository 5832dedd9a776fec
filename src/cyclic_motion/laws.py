"""Closed-form distributions of the L1 radius U(t).

The law of U(t) splits into a singular part on the shell u = ct
(carried by paths with fewer than d events, see `singular_masses`) and
an absolutely continuous density on (0, ct) for d = 2, 3.

The density has three equivalent representations, all implemented:

* `density_u` — the primary non-negative series (index-shifted so the
  edge u = ct is a plain evaluation; every term is >= 0);
* `density_u_from_coefficients` — a fixed linear combination of kernel
  t-derivatives;
* `density_u_closed_form` — an I0/I1 expression, valid on the open
  interval only (0/0 at the edge).

Conditional laws given N(t)=n (n >= dim) are exact polynomials in u
with finite-sum CDFs, and `cdf_u` is the Poisson mixture of those CDFs:
nothing here integrates numerically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bessel import (KernelPoint, bessel_i_scaled, kernel_derivative,
                     like_input, scaled_series)
from .model import ModelParams, face_label, require_horizon, VERTEX
from .simulate import _poisson_table


class SingularStratumError(ValueError):
    """Raised when a conditional law is requested with n < dim.

    With fewer than dim events the motion is still on the shell
    u = ct: the conditional law is uniform on a boundary stratum and
    has no density in u.
    """


def poisson_pmf(n: int, mu: float) -> float:
    return math.exp(-mu + n * math.log(mu) - math.lgamma(n + 1))


@dataclass(frozen=True)
class StratumMass:
    """Probability mass of one shell stratum (total over its sites)."""

    stratum: str
    mass: float
    sites: int

    @property
    def each(self) -> float:
        """Mass per site (vertices are uniform across the 2d sites)."""
        return self.mass / self.sites


def singular_masses(params: ModelParams, t: float) -> list[StratumMass]:
    """Masses of the shell strata: P(N=k) for k < dim.

    k = 0 is the vertex stratum (uniform over the 2d vertices); k >= 1
    sits on the k-dimensional faces.  The remaining probability is the
    absolutely continuous interior mass `ac_mass`.
    """
    require_horizon(t, "t")
    if params.dim > 3:
        raise ValueError("analytic strata masses cover dim <= 3")
    out = [StratumMass(VERTEX, poisson_pmf(0, params.lam * t),
                       2 * params.dim)]
    for k in range(1, params.dim):
        out.append(StratumMass(face_label(k), poisson_pmf(k, params.lam * t), 1))
    return out


def ac_mass(params: ModelParams, t: float) -> float:
    """Total absolutely continuous mass 1 - sum_{k<dim} P(N=k)."""
    return 1.0 - sum(m.mass for m in singular_masses(params, t))


def _on_support(params: ModelParams, t: float, u, density):
    """``density`` at the points of u in [0, ct] and 0 at the others.

    A float for a scalar u, else an array.
    """
    require_horizon(t, "t")
    u_arr = np.asarray(u, dtype=float)
    if np.isnan(u_arr).any():
        raise ValueError("u must not be NaN")
    off = (u_arr < 0) | (u_arr > params.c * t)
    values = density(np.where(off, 0.0, u_arr))
    return like_input(u, np.where(off, 0.0, values))


# Per-term weights w_i(k) of the series form: the density sums
# w_0 + (lt/2) w_1 + q w_2 [+ q lt w_3] with q = lam^2 u^2 / (2 c^2).
_SERIES_WEIGHTS = {
    2: (lambda k: k / (k + 1.0),
        lambda k: 1.0 / (k + 1.0),
        lambda k: 1.0 / ((k + 1.0) * (k + 2.0))),
    3: (lambda k: k / (k + 1.0),
        lambda k: k / ((k + 1.0) * (k + 2.0)),
        lambda k: 1.0 / ((k + 1.0) * (k + 2.0)),
        lambda k: 1.0 / ((k + 1.0) * (k + 2.0) * (k + 3.0))),
}


def density_u(params: ModelParams, t: float, u):
    """Interior density p(u, t) of U(t) for dim 2 or 3 (series form).

    Takes a scalar or an array u and returns a float or an array.  The
    density is 0 outside [0, ct]; the edge u = ct is the finite limit
    (only the k=0 series term survives there).  Evaluated in scaled
    space, so large lam*t stays finite.
    """
    if params.dim not in _SERIES_WEIGHTS:
        raise ValueError("closed-form densities exist for dim 2 and 3 only")
    lam, c = params.lam, params.c
    lt = lam * t

    def series(v):
        q = lam * lam * v * v / (2.0 * c * c)
        sums, xi = scaled_series(lam, c, t, v, _SERIES_WEIGHTS[params.dim])
        total = sum(a * s for a, s in zip((1.0, 0.5 * lt, q, q * lt), sums))
        return lam / c * np.exp(xi - lt) * total

    return _on_support(params, t, u, series)


def density_u_from_coefficients(params: ModelParams, t: float, u):
    """Interior density via the kernel-derivative coefficient form.

    The density is (e^{-lam t}/c) * sum_j coeffs[j] * d^j g/dt^j with
    (A, B, C) = (-lam, 1, 2/lam) in dimension 2 and
    (A, B, C, D) = (-lam, -3, 2/lam, 4/lam^2) in dimension 3.
    """
    lam = params.lam
    coeffs = {2: (-lam, 1.0, 2.0 / lam),
              3: (-lam, -3.0, 2.0 / lam, 4.0 / lam ** 2)}.get(params.dim)
    if coeffs is None:
        raise ValueError("closed-form densities exist for dim 2 and 3 only")

    def combination(v):
        # Scaled derivatives: e^{xi} would overflow for lam*t past ~709.
        point = KernelPoint(params, t, v)
        total = sum(a * kernel_derivative(point, t_order=j, scaled=True)
                    for j, a in enumerate(coeffs))
        return np.exp(point.xi - lam * t) / params.c * total

    return _on_support(params, t, u, combination)


def density_u_closed_form(params: ModelParams, t: float, u):
    """Interior density via the I0/I1 expression (dim 2, 0 <= u < ct)."""
    if params.dim != 2:
        raise ValueError("the I0/I1 closed form is planar (dim 2) only")
    require_horizon(t, "t")
    lam, c = params.lam, params.c
    ct = c * t
    v = np.asarray(u, dtype=float)
    if not np.all((v >= 0) & (v < ct)):
        raise ValueError("closed form requires 0 <= u < ct (0/0 at the edge)")
    p_fac = (ct - v) * (ct + v)
    xi = lam / c * np.sqrt(p_fac)
    s = ct * ct + v * v
    i0 = bessel_i_scaled(0, xi)
    i1 = bessel_i_scaled(1, xi)
    return like_input(u, np.exp(xi - lam * t) * (
        lam / c * s / p_fac * i0
        + (lam * t * p_fac - 2.0 * s) / p_fac * i1 / np.sqrt(p_fac)))


def _require_cond_dim(params: ModelParams) -> None:
    if params.dim not in (1, 2, 3):
        raise ValueError("conditional laws cover dims 1, 2, 3")


def _cond_shape(params: ModelParams, n):
    """(j, b): given N=n, V = U/(ct) has a density proportional to
    (1 - v^2)^j * (1 + b v^2) on [0, 1].  ``n`` is an int or an
    integer array.

    Odd n: j = (n-1)/2, less 1 with b = 1 in dims 2 and 3.  Even n:
    j = (n-2)/2, less 1 with b = 3 in dim 3.
    """
    _require_cond_dim(params)
    low = np.min(n, initial=params.dim)
    if low < params.dim:
        raise SingularStratumError(
            f"N={low} < dim={params.dim}: the motion is on a shell stratum "
            "and has no density in u")
    odd = n % 2
    shifted = params.dim > 2 - odd
    return (n - 2 + odd) // 2 - shifted, shifted * (3.0 - 2.0 * odd)


def _cond_poly(params: ModelParams, n: int):
    """(amplitude, j, b): given N=n, V = U/(ct) has density
    amplitude * (1 - v^2)^j * (1 + b v^2) on [0, 1].

    The amplitude n C(n-1, j) / 2^(n-1) is a ratio of exact integers,
    rounded once, so it stays finite for every n.
    """
    j, b = _cond_shape(params, n)
    return n * math.comb(n - 1, j) / 2 ** (n - 1), j, b


def conditional_density_u(params: ModelParams, n: int, t: float, u):
    """Exact polynomial density of U(t) given N(t)=n, for n >= dim.

    Takes a scalar or an array u and returns a float or an array.
    """
    amp, j, b = _cond_poly(params, n)
    ct = params.c * t

    def poly(v):
        v = v / ct
        return amp / ct * ((1.0 - v) * (1.0 + v)) ** j * (1.0 + b * v * v)

    return _on_support(params, t, u, poly)


def _cdf_coeffs(params: ModelParams, ns, weights) -> np.ndarray:
    """Coefficients c_k of sum_n weight_n CDF_n = v * sum_k c_k y^k,
    v = u/(ct), y = 1 - v^2, for integer arrays ``ns`` (n >= dim).

    One CDF is (I_{v^2}(1/2, j+1) + w I_{v^2}(3/2, j+1)) / (1+w) with
    (j, b) from `_cond_shape` and w = b/(2j+3); as a finite sum (DLMF
    8.17) its c_k = alpha_k = C(2k,k)/4^k > 0 for k <= j and c_{j+1} =
    -w (2j+1) alpha_j / (1+w).  No terms cancel, and c_0 = 1 makes it 1
    at v = 1.  So the mixture's c_k is alpha_k P(j >= k) plus the
    weighted c_{j+1} landing on k: no loop over n.
    """
    j, b = _cond_shape(params, ns)
    size = j.max(initial=0) + 1
    k = np.arange(1, size)
    alpha = np.cumprod(np.concatenate([[1.0], (2 * k - 1) / (2 * k)]))
    w = b / (2 * j + 3)
    last = -w * (2 * j + 1) * alpha[j] / (1 + w)
    at_least = np.cumsum(np.bincount(j, weights, size)[::-1])[::-1]
    return (np.append(alpha * at_least, 0.0)
            + np.bincount(j + 1, weights * last, size + 1))


def _cdf_horner(params: ModelParams, t: float, u, coeffs: np.ndarray):
    """v * sum_k coeffs[k] y^k, v = u/(ct), y = 1 - v^2, at u clipped
    to [0, ct]."""
    ct = params.c * t

    def horner(x):
        v = x / ct
        y = (1.0 - v) * (1.0 + v)
        total = np.zeros_like(v)
        for coeff in coeffs[::-1]:
            total = total * y + coeff
        return v * total

    return _on_support(params, t, np.clip(u, 0.0, ct), horner)


class ConditionalLaw:
    """The law of U(t) given N(t)=n in dims 1-3 (n >= dim).

    Bundles the polynomial density with its closed-form CDF; `cdf`
    accepts arrays (used directly by the KS tests).
    """

    def __init__(self, params: ModelParams, n: int, horizon: float):
        self.params = params
        self.n = n
        self.horizon = require_horizon(horizon, "t")
        self._coeffs = _cdf_coeffs(params, np.array([n]), np.ones(1))

    def density(self, u):
        return conditional_density_u(self.params, self.n, self.horizon, u)

    def cdf(self, u):
        return _cdf_horner(self.params, self.horizon, u, self._coeffs)


def cdf_u(params: ModelParams, t: float, u):
    """CDF of the a.c. part of U(t): its mass below u, not renormalized.

    The Poisson mixture of the conditional CDFs over the terms that
    `mixture_density` sums, so it is 0 below 0 and `ac_mass` from ct
    on: one polynomial in y = 1 - v^2 (`_cdf_coeffs`), evaluated by one
    Horner loop.  Takes a scalar or an array u and returns a float or an array.
    """
    ns, weights = np.reshape(_poisson_terms(params, t), (-1, 2)).T
    return _cdf_horner(params, t, u,
                       _cdf_coeffs(params, ns.astype(int), weights))


def mean_u(params: ModelParams, t: float) -> float:
    """E U(t) in dim 2, singular part included (overflow-safe)."""
    if params.dim != 2:
        raise ValueError("the closed-form mean is planar (dim 2) only")
    require_horizon(t, "t")
    lam, c = params.lam, params.c
    lt = lam * t
    ct = c * t
    return float((ct + 2 * c / lam) * bessel_i_scaled(0, lt)
                 + ct * bessel_i_scaled(1, lt) - 2 * c / lam * math.exp(-lt))


def moment_u(params: ModelParams, m: int, t: float) -> float:
    """E U(t)^m in dim 2 by the closed moment formula (m >= 0).

    The formula already absorbs the singular contribution
    (ct)^m e^{-lam t}(1 + lam t); Bessel factors are evaluated in
    scaled space.  m=0 reproduces 1 and m=1 reproduces `mean_u` to
    rounding.
    """
    if params.dim != 2:
        raise ValueError("closed-form moments are planar (dim 2) only")
    if m < 0:
        raise ValueError("m must be >= 0")
    require_horizon(t, "t")
    lam, c = params.lam, params.c
    lt = lam * t
    ct = c * t
    a_big = 2.0 * c * c * t / lam
    gam = math.gamma(0.5 * (m + 1))
    ive_hi = bessel_i_scaled(0.5 * (m + 1), lt)
    ive_lo = bessel_i_scaled(0.5 * (m - 1), lt)
    pow_hi = a_big ** (0.5 * (m + 1))
    total = 0.5 * lam * gam * pow_hi * ive_hi \
        + gam * ive_lo * (0.5 * lam * pow_hi
                          + 2.0 * m * c * c / lam * a_big ** (0.5 * (m - 1)))
    if m > 0:
        total -= 2.0 / lam * m * c * c * ct ** (m - 1) * math.exp(-lt)
    return float(total / c)


def conditional_mean_u(n: int) -> float:
    """E[U(t) | N(t)=n] in dim 3, as a multiple of ct (n >= 3)."""
    if n < 3:
        raise SingularStratumError(
            f"N={n} < 3: conditional means require the a.c. regime")
    if n % 2 == 1:
        k = (n - 1) // 2
        return (math.factorial(2 * k + 1) * (k + 2)
                / (2 ** (2 * k + 1) * math.factorial(k + 1) ** 2))
    k = (n - 2) // 2
    return (math.factorial(2 * k + 1) * (k + 4)
            / (2 ** (2 * k + 1) * math.factorial(k) * math.factorial(k + 2)))


def conditional_mean_ratio(k: int) -> float:
    """Ratio E[U|N=2k+1] / E[U|N=2k+2] = (k+2)^2 / ((k+1)(k+4)).

    Equivalently 1 - k/((k+1)(k+4)): consecutive odd/even conditional
    means differ by O(1/k), both tending to the same limit.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    return (k + 2) ** 2 / ((k + 1) * (k + 4))


def catalan_number(k: int) -> int:
    return math.comb(2 * k, k) // (k + 1)


def conditional_mean_catalan(n: int) -> float:
    """`conditional_mean_u` rewritten through Catalan numbers C_k."""
    if n < 3:
        raise SingularStratumError(
            f"N={n} < 3: conditional means require the a.c. regime")
    if n % 2 == 1:
        k = (n - 1) // 2
        return (2 * k + 1) * catalan_number(k) * (k + 2) \
            / (2 ** (2 * k + 1) * (k + 1))
    k = (n - 2) // 2
    return (2 * k + 1) * catalan_number(k) * (k + 4) \
        / (2 ** (2 * k + 1) * (k + 2))


def _poisson_terms(params: ModelParams, t: float) -> list[tuple[int, float]]:
    """(n, P(N=n)) from n = dim to where the sampler's Poisson table
    stops, at the first n with P(N > n) < 2**-60.  Dims outside 1-3
    raise even when that list would be empty."""
    _require_cond_dim(params)
    require_horizon(t, "t")
    lt = params.lam * t
    lo, cdf = _poisson_table(lt)
    return [(n, poisson_pmf(n, lt)) for n in range(params.dim, lo + cdf.size)]


def mixture_density(params: ModelParams, t: float, u):
    """sum_n P(N=n) conditional_density(n, u): reconstructs density_u.

    Takes a scalar or an array u and returns a float or an array (zeros
    where the Poisson table ends before n = dim).  Dims 1-3 only.
    """
    def mixture(v):
        return sum((weight * conditional_density_u(params, n, t, v)
                    for n, weight in _poisson_terms(params, t)),
                   np.zeros_like(v))

    return _on_support(params, t, u, mixture)
