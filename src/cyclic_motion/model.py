"""Model parameters, scale rules, the law of N(t), directions, strata.

The motion moves at constant speed ``c`` in dimension ``d`` and cycles
through the 2d directions ``+e_1, ..., +e_d, -e_1, ..., -e_d`` (in that
order, wrapping around) at the event times of a Poisson(``lam``)
process.  The L1 radius ``u = sum(|x_i|)`` locates the particle on a
homothetic layer of the support cross-polytope ``sum(|x_i|) <= ct``.

Paths with fewer than ``d`` events have not yet visited ``d`` distinct
axes and therefore still sit on the outer shell ``u = ct``; their
location there is classified by `classify_stratum`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


def require_int(value, name: str) -> int:
    """``value`` as an int, or ValueError naming it unless it is an
    integer: int() would truncate 2.7 to 2 and take True as 1."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class ModelParams:
    """Speed, switching rate, and dimension of the motion."""

    c: float
    lam: float
    dim: int = 2

    def __post_init__(self):
        if not (self.c > 0 and np.isfinite(self.c)):
            raise ValueError(f"speed c must be positive and finite, got {self.c}")
        if not (self.lam > 0 and np.isfinite(self.lam)):
            raise ValueError(f"rate lam must be positive and finite, got {self.lam}")
        if not 1 <= require_int(self.dim, "dim") <= 8:
            raise ValueError(f"dim must be in 1..8, got {self.dim}")

    @property
    def n_directions(self) -> int:
        return 2 * self.dim


# Supported scales: the speed c in [_MIN_SPEED, _SCALE], the reach c*t
# in [_MIN_REACH, _SCALE] and, where the Bessel forms square it, lam/c
# up to _SCALE.  Inside them no square, cube or 1/(c*t) that a law
# forms overflows or turns 0/0.
_SCALE = 1e30
_MIN_SPEED = 1e-30
_MIN_REACH = 1e-300
# Largest lam*t of the Bessel layer and the sampler: scipy's ``ive``
# returns NaN past x ~ 1e9.
MAX_LAMBDA_T = 1e8
# Poisson mass left out at each end of the support of N(t).
_TAIL = 2.0 ** -60


def require_horizon(t: float, name: str = "horizon",
                    params: ModelParams | None = None) -> float:
    """``t`` as a float, or ValueError unless it is finite and > 0 and,
    given ``params``, the speed c and the reach c*t are supported scales."""
    t = float(t)
    if not (t > 0 and math.isfinite(t)):
        raise ValueError(f"{name} must be finite and > 0, got {t}")
    if params is not None:
        for scale, value, low in (("speed c", params.c, _MIN_SPEED),
                                  ("reach c*t", params.c * t, _MIN_REACH)):
            if not low <= value <= _SCALE:
                raise ValueError(f"{scale}={value:g} outside the supported "
                                 f"scales {low:g}..{_SCALE:g}")
    return t


def require_lambda_t(lam: float, t: float) -> float:
    """lam*t, or ValueError above `MAX_LAMBDA_T`."""
    lt = lam * t
    if lt > MAX_LAMBDA_T:
        raise ValueError(f"lam*t={lt:g} above the supported {MAX_LAMBDA_T:g}")
    return lt


def poisson_law(mu: float,
                first: float = math.inf) -> tuple[np.ndarray, np.ndarray]:
    """``(k, r)`` for N ~ Poisson(mu), mu = lam*t <= `MAX_LAMBDA_T`.

    ``r = P(N = k) / P(N = floor(mu))`` for the ints ``k`` from
    min(first, lo) to hi, where lo is the first k with P(N <= k) >=
    2**-60 and hi the first with P(N > k) < 2**-60: products of the term
    ratios k/mu below the mode and mu/k above it (4e-15 relative at
    mu = 1e5, where lgamma's rounding gives 3e-10), cut where they leave
    the normal range (`_normal_cumprod`).  lo and hi come from their
    sums over mu +- (12 sqrt(mu) + 60), summed from each end; each tail
    beyond that holds under 1e-13 of 2**-60.
    """
    require_lambda_t(mu, 1.0)
    half = 12.0 * math.sqrt(mu) + 60.0
    mode, top, bottom = int(mu), int(mu + half), max(0, int(mu - half))
    down = _normal_cumprod(np.arange(mode, min(first, bottom), -1) / mu)
    r = np.concatenate([down[::-1], [1.0],
                        np.cumprod(mu / np.arange(mode + 1, top + 1))])
    start = top + 1 - r.size  # min(first, bottom) unless the products cut
    window = r[bottom - start:]
    below = np.cumsum(window)  # P(N <= k) up to a factor
    cut = _TAIL * below[-1]
    lo = bottom + int(np.searchsorted(below, cut))
    hi = top - int(np.searchsorted(np.cumsum(window[::-1]), cut))
    begin = max(start, min(first, lo))
    return np.arange(begin, hi + 1), r[begin - start:hi + 1 - start]


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


@dataclass(frozen=True)
class Direction:
    """One of the 2d cycle directions, indexed 1..2d.

    Index j <= d is the unit vector +e_j; index j > d is -e_{j-d}.
    """

    index: int
    dim: int

    def __post_init__(self):
        index = require_int(self.index, "direction index")
        if not 1 <= index <= 2 * require_int(self.dim, "dim"):
            raise ValueError(
                f"direction index {self.index} outside 1..{2 * self.dim}")

    @property
    def axis(self) -> int:
        """0-based axis of the single nonzero component."""
        return (self.index - 1) % self.dim

    @property
    def sign(self) -> int:
        return 1 if self.index <= self.dim else -1


def cycle_index(j, k, two_d: int):
    """The 1-based index of the direction ``k`` switches after ``j``."""
    i = j - 1  # ints or int arrays: an array call makes one new array
    i += k
    i %= two_d
    i += 1
    return i


def class_sizes(segs, two_d: int) -> np.ndarray:
    """``m[q, i]``, the number of segments k < ``segs[i]`` in class q,
    ``cycle_index(1, k, two_d) = q + 1``; a scalar ``segs`` gives a column."""
    full, extra = np.divmod(segs, two_d)
    return full + (np.arange(two_d)[:, None] < extra)


def face_label(n: int) -> str:
    """Label of the shell stratum reached after n < dim events."""
    return f"face{n}"


def classify_stratum(n_events: int, dim: int) -> str:
    """Stratum of an outcome: 'vertex', 'face1'..'face{d-1}', or 'interior'.

    A path with n < dim events has moved along n+1 distinct axes and
    sits on an n-dimensional face of the shell (a vertex for n = 0);
    with n >= dim events the position is in the open interior almost
    surely.
    """
    if require_int(n_events, "n_events") < 0:
        raise ValueError("n_events must be >= 0")
    return stratum_labels(dim)[min(n_events, dim)]


def stratum_labels(dim: int) -> list[str]:
    """All strata in canonical order: vertex, face1, ..., interior; the
    stratum of a path with n events is entry min(n, dim)."""
    return ["vertex"] + [face_label(k) for k in range(1, dim)] + ["interior"]
