"""Closed-form distributions of the L1 radius U(t).

The law of U(t) splits into a singular part on the shell u = ct
(carried by paths with fewer than d events, see `singular_masses`) and
an absolutely continuous density on (0, ct) for d = 2, 3.

The density has three equivalent representations, all implemented:

* `density_u` — the primary non-negative series (index-shifted so the
  edge u = ct is a plain evaluation; every term is >= 0);
* `density_u_from_coefficients` — a fixed linear combination of kernel
  t-derivatives, all taken from one pass of the kernel series;
* `density_u_closed_form` — an I0/I1 expression, valid on the open
  interval only (0/0 at the edge).

Conditional laws given N(t)=n (n >= dim) are exact polynomials in
y = 1 - (u/ct)^2 with finite-sum CDFs.  A law and any weighted sum of
laws are one set of coefficient rows (`_Mixture`, built with
`np.bincount`) evaluated by one two-level Horner pass (`_horner`):
`ConditionalLaw` holds the rows of one n, and `mixture_density` and
`cdf_u` evaluate the rows of the Poisson mixture.  Nothing here loops over n or integrates
numerically.  The means and moments are sums of non-negative terms, so
nothing cancels at small lam*t.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln, pdtrc, xlogy

from .bessel import (MAX_MOMENT, _derivative, _kernel_sums_scaled,
                     _sum_exp, _term, bessel_i_scaled, like_input,
                     require_lambda_t, scaled_series)
# Nothing here calls kernel_derivative; it stays a global of this module
# because perfbench's tracer wraps laws.kernel_derivative by name.
from .bessel import kernel_derivative  # noqa: F401
from .model import (ModelParams, face_label, require_horizon, require_int,
                    VERTEX)
from .simulate import _poisson_table

# Largest lam*t that `cdf_u` and `mixture_density` take (the sampler
# takes up to `simulate.MAX_MEAN_EVENTS`): their polynomials have degree
# about lam*t/2, so time and memory grow linearly with it.
MAX_MIXTURE_EVENTS = 1e6
# Largest n of a conditional law, for the same reason; it covers every
# n of the Poisson table at MAX_MIXTURE_EVENTS.
MAX_SWITCHES = 1 << 20
# Largest n of the conditional means: their exact factorials have about
# n log2(n) bits, so time grows like n^2 (0.2 s here, 21 s at 2^20).
MAX_MEAN_SWITCHES = 1 << 16
# Block values per row that `_horner` holds at once (points x blocks).
_HORNER_ENTRIES = 1 << 16


class SingularStratumError(ValueError):
    """Raised when a conditional law is requested with n < dim.

    With fewer than dim events the motion is still on the shell
    u = ct: the conditional law is uniform on a boundary stratum and
    has no density in u.
    """


def poisson_pmf(n: int, mu: float) -> float:
    """P(N=n) for N ~ Poisson(mu): a float for an int n, else an array."""
    return like_input(n, np.exp(-mu + xlogy(n, mu) - gammaln(n + 1)))


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
    """Total absolutely continuous mass P(N >= dim) = 1 - sum_{k<dim} P(N=k),
    as the Poisson upper tail: the difference cancels at small lam*t."""
    require_horizon(t, "t")
    if params.dim > 3:
        raise ValueError("analytic strata masses cover dim <= 3")
    return float(pdtrc(params.dim - 1, params.lam * t))


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
        # One series pass holds every t-derivative; they stay scaled by
        # e^{-xi}, since e^{xi} overflows for lam*t past ~709.
        *sums, xi = _kernel_sums_scaled(params, t, v)
        total = sum(a * _derivative(sums, params.c, t, v, j, 0)
                    for j, a in enumerate(coeffs))
        return np.exp(xi - lam * t) / params.c * total

    return _on_support(params, t, u, combination)


def density_u_closed_form(params: ModelParams, t: float, u):
    """Interior density via the I0/I1 expression (dim 2, 0 <= u < ct)."""
    if params.dim != 2:
        raise ValueError("the I0/I1 closed form is planar (dim 2) only")
    require_horizon(t, "t")
    lam, c = params.lam, params.c
    lt = require_lambda_t(lam, t)
    ct = c * t
    v = np.asarray(u, dtype=float)
    if not np.all((v >= 0) & (v < ct)):
        raise ValueError("closed form requires 0 <= u < ct (0/0 at the edge)")
    p_fac = (ct - v) * (ct + v)
    xi = lam / c * np.sqrt(p_fac)
    s = ct * ct + v * v
    i0 = bessel_i_scaled(0, xi)
    i1 = bessel_i_scaled(1, xi)
    return like_input(u, np.exp(xi - lt) * (
        lam / c * s / p_fac * i0
        + (lt * p_fac - 2.0 * s) / p_fac * i1 / np.sqrt(p_fac)))


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
    high = np.max(n, initial=0)
    if high > MAX_SWITCHES:
        raise ValueError(f"N={high} above the supported {MAX_SWITCHES}")
    odd = n % 2
    shifted = params.dim > 2 - odd
    return (n - 2 + odd) // 2 - shifted, shifted * (3.0 - 2.0 * odd)


def _horner(ct: float, x: np.ndarray, rows: np.ndarray, low: int = 0):
    """(v, y^low sum_k rows[:, k] y^k) at v = x/ct, y = 1 - v^2, each
    result shaped like x.

    Two-level Horner: the K columns go in about sqrt(K)/2 blocks of
    equal width (zero-padded at the top); one Horner pass over the
    columns evaluates every block at once, and one over the blocks, in
    y^width, chains them.  The loop runs about 2.5 sqrt(K) times, not K;
    rows under 16 columns stay one plain Horner pass.  Every step is
    elementwise, so a point's value does not depend on the other
    points.  Points go in chunks of `_HORNER_ENTRIES` / blocks.
    """
    v = x / ct
    y = np.ravel((1.0 - v) * (1.0 + v))
    count, size = rows.shape
    blocks = max(1, math.isqrt(size) // 2)
    width = -(-size // blocks)
    coeffs = np.zeros((count, blocks * width))
    coeffs[:, :size] = rows
    coeffs = coeffs.reshape(count, blocks, width, 1)
    total = np.zeros((count, y.size))
    step = max(1, _HORNER_ENTRIES // blocks)
    for first in range(0, y.size, step):
        part = y[first:first + step]
        acc = np.zeros((count, blocks, part.size))
        for k in range(width - 1, -1, -1):
            acc *= part
            acc += coeffs[:, :, k]
        chained = total[:, first:first + step]
        shift = part ** width
        for b in range(blocks - 1, -1, -1):
            chained *= shift
            chained += acc[:, b]
    return v, (total * y ** low).reshape((count,) + v.shape)


class _Mixture:
    """sum_n weight_n law_n over integer arrays ``ns`` (n >= dim), held as
    coefficient rows in y = 1 - v^2, v = u/(ct):

        ct * density = y^low (sum_k a_k y^k + v^2 sum_k b_k y^k),
        CDF = v sum_k c_k y^k.

    Given N=n, V has the density amp (1 - v^2)^j (1 + b v^2) with (j, b)
    from `_cond_shape`, w = b/(2j+3), alpha_k = C(2k,k)/4^k and amp =
    (2j+1) alpha_j/(1+w), its normaliser, so a_j and b_j gain weight amp
    and weight amp b: no density coefficient is negative.  The CDF is
    (I_{v^2}(1/2, j+1) + w I_{v^2}(3/2, j+1))/(1+w), as a finite sum (DLMF
    8.17) c_k = alpha_k for k <= j and c_{j+1} = -w amp; so the sum's c_k
    is alpha_k P(j >= k) plus the weighted c_{j+1} landing on k.  alpha
    is one cumulative product and each row one `np.bincount`: no loop
    over n.
    """

    def __init__(self, params: ModelParams, horizon: float, ns, weights):
        self.params = params
        self.horizon = require_horizon(horizon, "t")
        j, b = _cond_shape(params, ns)
        size = j.max(initial=0) + 1
        k = np.arange(1, size)
        alpha = np.cumprod(np.concatenate([[1.0], (2 * k - 1) / (2 * k)]))
        w = b / (2 * j + 3)
        amp = weights * (2 * j + 1) * alpha[j] / (1 + w)
        dens = np.stack([np.bincount(j, amp, size),
                         np.bincount(j, amp * b, size)])
        # Leading columns of weight 0 (underflowed Poisson terms) leave
        # the Horner loop as the factor y^low.
        self._low = np.flatnonzero(dens[0])[0] if dens.any() else 0
        self._dens = dens[:, self._low:]
        at_least = np.cumsum(np.bincount(j, weights, size)[::-1])[::-1]
        self._cdf = (np.append(alpha * at_least, 0.0)
                     + np.bincount(j + 1, -w * amp, size + 1))[None]

    def density(self, u):
        ct = self.params.c * self.horizon

        def poly(x):
            v, (a, b) = _horner(ct, x, self._dens, self._low)
            return (a + v * v * b) / ct

        return _on_support(self.params, self.horizon, u, poly)

    def cdf(self, u):
        ct = self.params.c * self.horizon

        def poly(x):
            v, (total,) = _horner(ct, x, self._cdf)
            return v * total

        return _on_support(self.params, self.horizon, np.clip(u, 0.0, ct),
                           poly)


class ConditionalLaw(_Mixture):
    """The law of U(t) given N(t)=n in dims 1-3 (n >= dim): a one-term
    `_Mixture` (the KS tests call its `cdf` on arrays)."""

    def __init__(self, params: ModelParams, n: int, horizon: float):
        n = require_int(n, "n")
        super().__init__(params, horizon, np.array([n]), np.ones(1))
        self.n = n


def cdf_u(params: ModelParams, t: float, u):
    """CDF of the a.c. part of U(t): its mass below u, not renormalized.

    The Poisson mixture of the conditional CDFs over the terms that
    `mixture_density` sums, so it is 0 below 0 and `ac_mass` from ct
    on.  Takes a scalar or an array u and returns a float or an array.
    """
    return _Mixture(params, t, *_poisson_terms(params, t)).cdf(u)


def mean_u(params: ModelParams, t: float) -> float:
    """E U(t) in dim 2, singular part included.

    E U = ct (I_0 + I_1)(x) e^{-x} + (2c/lam) e^{-x} (I_0(x) - 1) with
    x = lam t: the Bessel values scaled, I_0 - 1 summed as its positive
    series, so nothing cancels at small lam t and nothing overflows at
    large lam t.
    """
    if params.dim != 2:
        raise ValueError("the closed-form mean is planar (dim 2) only")
    require_horizon(t, "t")
    lam, c = params.lam, params.c
    lt = require_lambda_t(lam, t)
    _, log_tail = _term(math.log(2.0 * c / lam), 0.0, lt, 0.0, scaled=True)
    return float(c * t * (bessel_i_scaled(0, lt) + bessel_i_scaled(1, lt))
                 + math.exp(log_tail))


def moment_u(params: ModelParams, m: int, t: float) -> float:
    """E U(t)^m in dim 2 by the closed moment formula (0 <= m <= `MAX_MOMENT`).

    With x = lam t, p = (m+1)/2, nu = (m-1)/2 and F_nu = Gamma(nu+1)
    (2/x)^nu I_nu(x) (as in `kernel_integral`), E U^m is

        e^{-x} [lam (ct)^(m+1) F_p / ((m+1) c) + (ct)^m F_nu
                + (2 m c / lam) (ct)^(m-1) (F_nu - 1)],

    singular part included.  All three terms are >= 0 and F_nu - 1 is
    summed as its positive series, so nothing cancels at small lam t;
    each term is formed in log space, so nothing over- or underflows on
    its own.  m=0 reproduces 1 and m=1 reproduces `mean_u` to rounding.
    """
    if params.dim != 2:
        raise ValueError("closed-form moments are planar (dim 2) only")
    if not 0 <= m <= MAX_MOMENT:
        raise ValueError(f"m must be in 0..{MAX_MOMENT}, got {m}")
    require_horizon(t, "t")
    lam, c = params.lam, params.c
    lt = require_lambda_t(lam, t)
    log_ct = math.log(c * t)
    p, nu = 0.5 * (m + 1), 0.5 * (m - 1)
    terms = [_term(math.log(lam / c) + (m + 1) * log_ct - math.log(m + 1),
                   p, lt, 1.0, scaled=True),
             _term(m * log_ct, nu, lt, 1.0, scaled=True)]
    if m > 0:
        terms.append(_term(math.log(2.0 * m * c / lam) + (m - 1) * log_ct,
                           nu, lt, 0.0, scaled=True))
    return _sum_exp(terms)


def conditional_mean_u(n: int) -> float:
    """E[U(t) | N(t)=n] in dim 3, as a multiple of ct (3 <= n <= 2^16)."""
    n = require_int(n, "n")
    if n < 3:
        raise SingularStratumError(
            f"N={n} < 3: conditional means require the a.c. regime")
    if n > MAX_MEAN_SWITCHES:
        raise ValueError(f"N={n} above the supported {MAX_MEAN_SWITCHES}")
    if n % 2 == 1:
        k = (n - 1) // 2
        return (math.factorial(2 * k + 1) * (k + 2)
                / (2 ** (2 * k + 1) * math.factorial(k + 1) ** 2))
    k = (n - 2) // 2
    return (math.factorial(2 * k + 1) * (k + 4)
            / (2 ** (2 * k + 1) * math.factorial(k) * math.factorial(k + 2)))


def _poisson_terms(params: ModelParams,
                   t: float) -> tuple[np.ndarray, np.ndarray]:
    """(ns, P(N=ns)) for n = dim up to where the sampler's Poisson table
    stops, at the first n with P(N > n) < 2**-60.  At large lam*t the
    terms start higher, where P(N=n)/P(N=mode) is about to leave the
    normal range (`_normal_cumprod`).  Dims outside 1-3
    raise even when the arrays would be empty, and so does lam*t above
    `MAX_MIXTURE_EVENTS`."""
    _require_cond_dim(params)
    require_horizon(t, "t")
    lt = params.lam * t
    if lt > MAX_MIXTURE_EVENTS:
        raise ValueError(f"lam*t={lt:g} above the supported "
                         f"{MAX_MIXTURE_EVENTS:g} of the Poisson mixtures")
    lo, cdf = _poisson_table(lt)
    # Products of the term ratios k/lt and lt/k away from the mode, over
    # the table (its tails hold < 2**-59): 4e-15 at lt = 1e5, where
    # lgamma's rounding gives 3e-10.
    first, last = min(params.dim, lo), lo + cdf.size - 1
    mode = min(int(lt), last)
    down = _normal_cumprod(np.arange(mode, first, -1) / lt)[::-1]
    ratios = np.concatenate([down, [1.0],
                             np.cumprod(lt / np.arange(mode + 1, last + 1))])
    k = np.arange(last + 1 - ratios.size, last + 1)
    keep = k >= params.dim
    return k[keep], ratios[keep] / ratios.sum()


def _normal_cumprod(r: np.ndarray) -> np.ndarray:
    """``np.cumprod(r)`` for factors r <= 1, cut after the first chunk
    that ends below the normal range (2**-1022): the products left only
    shrink, weigh nothing next to the leading 1, and subnormal arithmetic
    is slow (the left Poisson tail at lam*t = 1e6 has 1e6 terms)."""
    parts, run, chunk = [], 1.0, 4096
    for start in range(0, r.size, chunk):
        seg = r[start:start + chunk].copy()
        seg[0] *= run
        parts.append(np.cumprod(seg))
        run = parts[-1][-1]
        if run < np.finfo(float).tiny:
            break
    return np.concatenate(parts) if parts else r


def mixture_density(params: ModelParams, t: float, u):
    """sum_n P(N=n) conditional_density(n, u): reconstructs density_u.

    Takes a scalar or an array u and returns a float or an array (zeros
    where the Poisson table ends before n = dim).  Dims 1-3 only.
    """
    return _Mixture(params, t, *_poisson_terms(params, t)).density(u)
