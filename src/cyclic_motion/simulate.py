"""Exact path simulation of the cyclic orthogonal-direction motion.

A path is: an initial direction uniform on the 2d cycle directions,
Poisson(lam) switch times on (0, t), and deterministic cycling
d_j -> d_{j+1} at each switch.  Conditioned on N(t)=n the switch times
are n sorted Uniform(0,t) draws (order statistics).

`sample_path`/`evolve` are the scalar event-time oracle: they draw the
switch times and integrate the path segment by segment.

`simulate_ensemble` draws no switch times.  Given N(t)=n the n+1
segment lengths are t*Dirichlet(1, ..., 1), and segment k runs along
cycle direction (j0-1+k) mod 2d, so the 2d direction-class sums are
t*Dirichlet(m_0, ..., m_{2d-1}) with m_q the number of segments
k <= n with k = q mod 2d (Dirichlet aggregation; Devroye,
*Non-Uniform Random Variate Generation*, 1986, ch. XI).  A path costs
one Poisson inversion (through a guide table, `_invert`) and 2d
Gamma(m_q) variates, whatever lam*t is; conditioning on N(t)=n only
fixes N.  Every draw of replication i reads a fixed slot of substream
i (layout in `rng`), so replication i depends only on (seed, i) and
ensembles are bit-reproducible under any batching.  Rows are processed
in blocks of `_BLOCK_ROWS`, so temporary arrays do not grow with the
count.

Blocks run concurrently: the calling thread and up to `_WORKERS` - 1
helper threads each take every `_WORKERS`-th block (numpy drops the GIL
inside its array loops), and each block writes only its own rows of the
output.  The helpers live only for the duration of the call.  A block
is a few large array operations.  The first Gamma rejection attempt is
drawn class by class, over the rows that need it, and the exponential
terms over all rows of each class that some row needs, with masks
keeping the lanes that count; only the rejected lanes (about 2%) go to
the sparse, one-entry-per-lane loop.  Positions are one gather from the block's
table of class pair differences.  A lane does the same float operations
on the same slots on either path, so the output does not depend on the
block size, the layout or the number of threads
(`tests/test_sampler_digest.py` pins it).
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy import special

from . import rng
from .model import (Direction, ModelParams, classify_stratum,
                    require_horizon, require_int, stratum_labels)

# Algorithm id of `simulate_ensemble`, written into every output: the
# samples of a given seed change whenever it does.
SAMPLER_ID = "classsum-1"
# Largest supported lam*t of an unconditioned ensemble (the Poisson
# inversion table holds about 20 sqrt(lam*t) entries).
MAX_MEAN_EVENTS = 1e8
# Largest supported conditioning n: n + 1 fits int64 and every class
# size converts to float exactly.
MAX_CONDITIONING = 2 ** 53

_BLOCK_ROWS = 1 << 14
# Threads that run the blocks of an ensemble, the calling thread
# included.
_WORKERS = min(4, (len(os.sched_getaffinity(0))
                   if hasattr(os, "sched_getaffinity")
                   else os.cpu_count() or 1))
_TAIL = 2.0 ** -60
_GUIDE_MAX = 1 << 16  # buckets of the Poisson guide table
_EXP_TERMS = 3  # Gamma(m) with m <= 3 is a sum of m exponentials
# Substream slots: initial direction, Poisson draw, then _EXP_TERMS
# exponential slots per class, then 3 slots per class per rejection
# attempt (a Box-Muller pair and the acceptance uniform).
_SLOT_DIRECTION = 0
_SLOT_POISSON = 1
_SLOT_EXP = 2

_STRATUM_TOL = 1e-9  # relative tolerance of the u == ct shell test


@dataclass(frozen=True)
class MotionPath:
    """One sampled path: initial direction plus sorted switch times."""

    params: ModelParams
    horizon: float
    initial_direction: Direction
    switch_times: np.ndarray

    def __post_init__(self):
        s = np.asarray(self.switch_times, dtype=float)
        if s.ndim != 1 or np.any(np.diff(s) < 0):
            raise ValueError("switch_times must be a sorted 1-d array")
        if s.size and (s[0] < 0 or s[-1] > self.horizon):
            raise ValueError("switch_times must lie inside (0, horizon)")


@dataclass(frozen=True)
class MotionOutcome:
    """State at the horizon: position, L1 radius, and shell stratum."""

    params: ModelParams
    horizon: float
    position: np.ndarray
    u: float
    n_events: int
    initial_direction: Direction
    final_direction: Direction
    stratum: str


@dataclass
class SampleSet:
    """Vector of outcomes from `simulate_ensemble` (column arrays)."""

    params: ModelParams
    horizon: float
    conditioning: int | None
    seed: int
    u: np.ndarray
    n_events: np.ndarray
    positions: np.ndarray
    initial_direction: np.ndarray
    final_direction: np.ndarray

    @cached_property
    def _stratum_codes(self) -> np.ndarray:
        """Index of each outcome's stratum in `stratum_labels`."""
        return np.minimum(self.n_events, self.params.dim)

    @cached_property
    def strata(self) -> np.ndarray:
        return np.array(stratum_labels(self.params.dim))[self._stratum_codes]

    def __len__(self) -> int:
        return len(self.u)

    def stratum_counts(self) -> dict[str, int]:
        counts = np.bincount(self._stratum_codes,
                             minlength=self.params.dim + 1)
        return {label: int(k) for label, k
                in zip(stratum_labels(self.params.dim), counts) if k}


def sample_path(params: ModelParams, horizon: float,
                stream: rng.Substream) -> MotionPath:
    """Unconditional path: uniform initial direction, Poisson switches."""
    horizon = require_horizon(horizon)
    j0 = 1 + int(stream.uniform() * params.n_directions)
    times = []
    s = 0.0
    while True:
        s += stream.exponential(params.lam)
        if s >= horizon:
            break
        times.append(s)
    return MotionPath(params, horizon, Direction(j0, params.dim),
                      np.array(times))


def sample_path_conditional(params: ModelParams, horizon: float, n: int,
                            stream: rng.Substream) -> MotionPath:
    """Path conditioned on N(t)=n: switch times are n sorted uniforms."""
    horizon = require_horizon(horizon)
    if require_int(n, "n") < 0:
        raise ValueError("n must be >= 0")
    j0 = 1 + int(stream.uniform() * params.n_directions)
    times = np.sort(stream.uniforms(n)) * horizon
    return MotionPath(params, horizon, Direction(j0, params.dim), times)


def evolve(path: MotionPath) -> MotionOutcome:
    """Integrate a path segment-by-segment to its outcome."""
    p = path.params
    t = path.horizon
    pos = np.zeros(p.dim)
    times = np.concatenate([[0.0], path.switch_times, [t]])
    j = path.initial_direction.index
    for k in range(len(times) - 1):
        d = Direction((j - 1 + k) % p.n_directions + 1, p.dim)
        pos[d.axis] += d.sign * p.c * (times[k + 1] - times[k])
    n = len(path.switch_times)
    u = float(np.sum(np.abs(pos)))
    stratum = classify_stratum(n, p.dim)
    if n < p.dim and abs(u - p.c * t) > _STRATUM_TOL * p.c * t:
        raise AssertionError(
            f"shell outcome with u={u} != ct={p.c * t}; path invariant broken")
    final = Direction((j - 1 + n) % p.n_directions + 1, p.dim)
    return MotionOutcome(params=p, horizon=t, position=pos, u=u, n_events=n,
                         initial_direction=path.initial_direction,
                         final_direction=final, stratum=stratum)


def _poisson_table(mu: float) -> tuple[int, np.ndarray]:
    """``(lo, F)`` with ``F[k] = P(N <= lo + k)`` for N ~ Poisson(mu).

    The table stops at the first k with P(N > k) < 2**-60 (its last
    entry is set to 1) and starts at the first k with
    P(N <= k) >= 2**-60.  `rng` uniforms are >= 2**-54, so inversion
    never lands below ``lo`` and the trimmed table inverts exactly as
    the full one; it holds O(sqrt(mu)) entries.  Both ends are found by
    bisection, so `special.pdtr` is evaluated only inside the table.
    """
    if mu > MAX_MEAN_EVENTS:
        raise ValueError(f"lam*t={mu:g} above the supported "
                         f"{MAX_MEAN_EVENTS:g}")
    # Both Poisson tails beyond 10 sqrt(mu) + 60 are far below 2**-60.
    half = 10.0 * math.sqrt(mu) + 60.0
    # floor(mu) lies below the median (>= mu - ln 2), where both
    # P(N <= k) and P(N > k) are >= 1/2: it splits the two searches.
    mid = math.floor(mu)
    lo = _bisect(lambda k: special.pdtr(k, mu) >= _TAIL,
                 max(0, int(mu - half)), mid)
    hi = _bisect(lambda k: special.pdtrc(k, mu) < _TAIL, mid, int(mu + half))
    cdf = special.pdtr(np.arange(lo, hi + 1), mu)
    cdf[-1] = 1.0
    return lo, cdf


def _bisect(pred, lo: int, hi: int) -> int:
    """The first k in [lo, hi] with ``pred(k)``; pred is monotone and
    holds at hi."""
    while lo < hi:
        k = (lo + hi) // 2
        if pred(k):
            hi = k
        else:
            lo = k + 1
    return lo


def _guide_table(cdf: np.ndarray) -> np.ndarray:
    """``guide[k]``, the first index i with ``cdf[i] >= k/K``, for k in
    0..K: K is the smallest power of two >= 16 ``cdf.size``, at most
    `_GUIDE_MAX`, so k/K is exact."""
    k = min(1 << (16 * cdf.size - 1).bit_length(), _GUIDE_MAX)
    return np.searchsorted(cdf, np.arange(k + 1) / k)


def _invert(cdf: np.ndarray, guide: np.ndarray, u: np.ndarray) -> np.ndarray:
    """``np.searchsorted(cdf, u)`` through the guide table of `_guide_table`.

    A uniform u in (0, 1) falls in bucket k = floor(u K) (u K is exact),
    and its index lies between ``guide[k]`` and ``guide[k+1]``: where the
    two agree that is the answer, and only the other lanes (about one in
    16 while the table has at most 2^12 entries) are searched.
    """
    k = guide.size - 1
    b = (u * k).astype(np.intp)
    n = guide[b]
    split = np.flatnonzero(n != guide[b + 1])
    n[split] = np.searchsorted(cdf, u[split])
    return n


def _class_gammas(keys: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Gamma(m[q, i]) variates for class q of replication i (0 where m is 0).

    Every variate reads fixed slots of substream ``keys[i]``.

    Shapes up to `_EXP_TERMS` are sums of that many exponentials, read
    from slots ``_SLOT_EXP + _EXP_TERMS*q + k``.  Larger shapes use the
    Marsaglia-Tsang (2000) rejection method with a Box-Muller normal;
    attempt a of class q reads the three slots from
    ``_SLOT_EXP + _EXP_TERMS*2d + 3*(2d*a + q)``.

    The first rejection attempt is drawn one class at a time, over
    the rows that some lane needs, and each exponential term over all
    rows of the classes that some row needs; masks keep the lanes that
    count.  Only the rejected lanes (about 2%) are drawn one entry per
    lane.  Either way a lane reads the same slots and does the same
    float operations, so the split changes no byte.  One class at a
    time keeps a block's temporaries to a few row-sized arrays, which
    matters when several blocks run at once.
    """
    two_d, rows = m.shape
    g = np.zeros(m.shape)
    lanes = m > _EXP_TERMS
    # m[q, i] does not grow with q: the rows that need some class are
    # those of class 0, and the classes some row needs come first.
    r = np.flatnonzero(lanes[0])
    if r.size == rows:
        r = slice(None)  # every row: views instead of gathers
    keys_r, m_r = keys[r], m[:, r]
    first = _SLOT_EXP + _EXP_TERMS * two_d + 3 * np.arange(two_d)
    reject = np.zeros(m_r.shape, dtype=bool)
    for q in range(two_d):
        need = lanes[q, r]
        if not need.any():
            break
        # Masked lanes get a harmless shape, so they raise no warning.
        shape = np.maximum(m_r[q], _EXP_TERMS + 1) - 1.0 / 3.0
        v, accept = _tsang_attempt(keys_r, first[q], shape)
        accept &= need
        v *= shape
        g[q, r] = np.where(accept, v, 0.0)
        reject[q] = need & ~accept
    # The rejected lanes go on from attempt 1, one entry per lane.
    q, c = np.divmod(np.flatnonzero(reject), reject.shape[1])
    i = np.arange(rows)[r][c]
    f = q * rows + i
    slot = first[q] + 3 * two_d
    shape = m_r[q, c] - 1.0 / 3.0
    flat = g.reshape(-1)  # a view: lane (q, i) is entry q*rows + i
    while f.size:
        v, accept = _tsang_attempt(keys[i], slot, shape)
        flat[f[accept]] = shape[accept] * v[accept]
        reject = ~accept
        f, i, shape = f[reject], i[reject], shape[reject]
        slot = slot[reject] + 3 * two_d
    small = m <= _EXP_TERMS
    for k in range(_EXP_TERMS):
        lanes = small & (m > k)
        need = np.flatnonzero(lanes.any(axis=1))
        if need.size == 0:
            break
        e = np.log(rng.uniform_column(
            np.broadcast_to(keys, (need.size, rows)),
            _SLOT_EXP + _EXP_TERMS * need[:, None] + k))
        e *= lanes[need]  # a masked lane subtracts -0.0: no change
        g[need] -= e
    return g


def _tsang_attempt(keys, slot, shape):
    """One Marsaglia-Tsang attempt per lane: ``(v, accept)``, the variate
    being ``shape * v``.  Reads slots ``slot .. slot+2``; every argument
    broadcasts to the lanes' shape."""
    x = np.log(rng.uniform_column(keys, slot))
    x *= -2.0
    np.sqrt(x, out=x)
    c = rng.uniform_column(keys, slot + 1)
    c *= 2.0 * np.pi
    x *= np.cos(c, out=c)
    v = 1.0 / np.sqrt(9.0 * shape)
    v *= x
    v += 1.0
    v **= 3
    with np.errstate(invalid="ignore", divide="ignore"):
        bound = 1.0 - v
        bound += np.log(v)
    bound *= shape
    x *= 0.5 * x
    bound += x
    accept = np.log(rng.uniform_column(keys, slot + 2)) < bound
    accept &= v > 0
    return v, accept


def simulate_ensemble(params: ModelParams, horizon: float, count: int,
                      seed: int, conditioning: int | None = None) -> SampleSet:
    """count independent outcomes; replication i depends only on (seed, i).

    With ``conditioning=n`` every path has exactly n switches.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    t = require_horizon(horizon)
    if conditioning is not None:
        conditioning = require_int(conditioning, "conditioning")
        if conditioning < 0:
            raise ValueError("conditioning must be >= 0")
        if conditioning > MAX_CONDITIONING:
            raise ValueError(f"conditioning n={conditioning} above the "
                             f"supported 2**53")
    dim, two_d = params.dim, params.n_directions
    if conditioning is None:
        lo, cdf = _poisson_table(params.lam * t)
        guide = _guide_table(cdf)
    ct = params.c * t
    classes = np.arange(two_d)
    axes = np.arange(dim)[:, None]
    n_events = np.empty(count, dtype=np.int64)
    j0 = np.empty(count, dtype=np.int64)
    pos = np.empty((count, dim))
    u = np.empty(count)

    def block(start: int) -> None:
        stop = min(start + _BLOCK_ROWS, count)
        rows = stop - start
        keys = rng.substream_keys(seed, start, rows)
        j = (rng.uniform_column(keys, _SLOT_DIRECTION) * two_d).astype(np.int64)
        if conditioning is None:
            n = lo + _invert(cdf, guide,
                             rng.uniform_column(keys, _SLOT_POISSON))
        else:
            n = np.full(rows, conditioning, dtype=np.int64)
        # Segment k runs along class k mod 2d; class q holds m_q segments.
        segs = n + 1
        g = _class_gammas(keys, segs // two_d
                          + (classes[:, None] < segs % two_d))
        # diff[r] is class r minus its opposite class r + d (mod 2d).
        diff = np.empty_like(g)
        np.subtract(g[:dim], g[dim:], out=diff[:dim])
        np.subtract(g[dim:], g[:dim], out=diff[dim:])
        # Class q runs along cycle direction (j + q) mod 2d, so axis a
        # reads diff[(a - j) mod 2d]: flat entries wrap modulo 2d*rows.
        x = diff.reshape(-1).take(axes * rows + (np.arange(rows) - j * rows),
                                  mode="wrap")
        x /= g.sum(axis=0)
        x *= ct
        pos[start:stop] = x.T
        # Shell outcomes lie on u = ct exactly; normalising leaves rounding.
        u[start:stop] = np.where(n < dim, ct,
                                 np.abs(pos[start:stop]).sum(axis=1))
        n_events[start:stop] = n
        j0[start:stop] = j + 1

    # Worker w runs every workers-th block; the caller is worker 0.
    starts = range(0, count, _BLOCK_ROWS)
    workers = min(_WORKERS, len(starts))

    def run(w: int) -> None:
        for start in starts[w::workers]:
            block(start)

    # Threads start on submit; leaving the block joins them, so no
    # thread writes to the output after the return.
    with ThreadPoolExecutor(max(workers - 1, 1),
                            thread_name_prefix="simulate-block") as pool:
        helpers = [pool.submit(run, w) for w in range(1, workers)]
        run(0)
    for h in helpers:
        h.result()  # re-raises a helper's exception
    final = (j0 - 1 + n_events) % two_d + 1
    return SampleSet(params=params, horizon=t, conditioning=conditioning,
                     seed=seed, u=u, n_events=n_events, positions=pos,
                     initial_direction=j0, final_direction=final)
