"""Exact path simulation of the cyclic orthogonal-direction motion.

A path is: an initial direction uniform on the 2d cycle directions,
Poisson(lam) switch times on (0, t), and deterministic cycling
d_j -> d_{j+1} at each switch.  Conditioned on N(t)=n the switch times
are n sorted Uniform(0,t) draws (order statistics).

`sample_path`/`evolve` are the scalar event-time oracle: they draw the
switch times and integrate the path segment by segment.

`simulate_ensemble` draws no switch times.  Given N(t)=n the n+1
segment lengths are t*Dirichlet(1, ..., 1), and segment k runs along
direction `model.cycle_index` (j0, k, 2d), so the 2d direction-class
sums are t*Dirichlet(m_0, ..., m_{2d-1}) with m_q the number of
segments in class q, `model.class_sizes` (Dirichlet aggregation; Devroye,
*Non-Uniform Random Variate Generation*, 1986, ch. XI).  A path costs
one Poisson inversion (through a guide table, `_invert`, of the CDF over
the support of N(t) that `laws._poisson_support` trims) and 2d
Gamma(m_q) variates, whatever lam*t is; conditioning on N(t)=n only
fixes N.  Every draw of replication i reads a fixed slot of substream
i (layout in `rng`), so replication i depends only on (seed, i) and
ensembles are bit-reproducible under any batching.  Rows are processed
in blocks of `_BLOCK_ROWS`, so temporary arrays do not grow with the
count.

Blocks of an ensemble that takes Marsaglia-Tsang attempts run
concurrently: the calling thread and up to `_WORKERS` - 1 helper
threads each take the next unstarted block from one shared,
lock-guarded queue of block starts (numpy drops the GIL inside its
array loops), so no thread idles while another has blocks left.  Each
block writes only its own rows of the output, and the helpers live
only for the duration of the call.  A block is a few large array
operations on row-sized arrays.  Its Gammas (sampler `classsum-2`)
come from one loop over the class pairs (2p, 2p+1).  A class of at
most `_EXP_TERMS` segments is a sum of exponentials, one draw per term
over the block.  The pair's first Marsaglia-Tsang attempt is one draw
of 4 slots over the lanes where class 2p has more segments: one
Box-Muller radius and angle give the normals r cos and r sin of the
two classes, so a class costs 2 slots and half a cosine per attempt.
After the loop only the rejected lanes (under 1% at 4 segments) go
on, one entry per lane.  A conditioned ensemble's class sizes are one
column broadcast over the rows; its other steps are those of any
block.  Each coordinate is one in-range gather from the block's table
of class pair differences, written to the block's contiguous span of
that axis's row in the axis-major ``(dim, count)`` output.

An ensemble whose typical path (its conditioning n, or the Poisson
median) has at most `_EXP_TERMS` segments in every class runs all its
blocks on the calling thread and starts no helper.  Its blocks are sums
of exponentials, short load/store loops (the uint64 mixer, masks, adds)
that a helper was measured not to speed up, while blocks that take
rejection attempts ran faster with one (timings in ROADMAP.md, item 4).

A `SampleSet` stores only the coordinates, the event counts and the
initial directions.  The L1 radius `u` and the `final_direction` are
derived on first read; the radius of fewer than 8 coordinates is
summed in order and that of 8 in numpy's pairwise order, as numpy's
row sum over ``(count, dim)`` positions does.  A lane does the same
float operations on the same slots on every path, so the output does
not depend on the block size, the layout or the number of threads
(`tests/test_sampler_digest.py` pins it).
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy import special

from . import rng
from .laws import _poisson_support
from .model import (Direction, ModelParams, class_sizes, classify_stratum,
                    cycle_index, require_horizon, require_int, stratum_labels)

# Algorithm id of `simulate_ensemble`, written into every output: the
# samples of a given seed change whenever it does.
SAMPLER_ID = "classsum-2"
# Largest supported conditioning n: n + 1 fits int64 and every class
# size converts to float exactly.
MAX_CONDITIONING = 2 ** 53

_BLOCK_ROWS = 1 << 14
# Threads that run the blocks of an ensemble, the calling thread
# included; an ensemble of sums of exponentials runs on the calling
# thread alone (see the module docstring).
_WORKERS = min(4, (len(os.sched_getaffinity(0))
                   if hasattr(os, "sched_getaffinity")
                   else os.cpu_count() or 1))
_GUIDE_MAX = 1 << 16  # buckets of the Poisson guide table
_EXP_TERMS = 3  # Gamma(m) with m <= 3 is a sum of m exponentials
# Substream slots: initial direction, Poisson draw, then _EXP_TERMS
# product slots per class, then the rejection attempts (layout in `rng`).
_SLOT_DIRECTION = 0
_SLOT_POISSON = 1
_SLOT_EXP = 2
_ROWS = np.arange(4)[:, None]  # slot offsets of a draw's rows

_STRATUM_TOL = 1e-9  # relative tolerance of the u == ct shell test
# numpy sums a row of this many terms or more pairwise, in eight
# accumulators; a shorter row it sums in order.  A row of exactly 8
# (dims are at most 8) is ((a0+a1)+(a2+a3))+((a4+a5)+(a6+a7)).
_PAIRWISE_TERMS = 8


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
    """Vector of outcomes from `simulate_ensemble` (column arrays).

    ``coordinates[a, i]`` is coordinate a of outcome i, stored
    axis-major; `u` and `final_direction` are derived on first read.
    """

    params: ModelParams
    horizon: float
    conditioning: int | None
    seed: int
    n_events: np.ndarray
    coordinates: np.ndarray
    initial_direction: np.ndarray

    @property
    def positions(self) -> np.ndarray:
        """The ``(count, dim)`` positions, a transposed view."""
        return self.coordinates.T

    @cached_property
    def u(self) -> np.ndarray:
        """The L1 radius of each position, summed in the order of numpy's
        row sum, and ct exactly on the shell."""
        x = self.coordinates
        if self.params.dim < _PAIRWISE_TERMS:
            # The terms in order, as numpy sums fewer than 8 of them.
            u = np.abs(x[0])
            term = np.empty_like(u)
            for row in x[1:]:
                u += np.abs(row, out=term)
        else:
            a = np.abs(x)
            u = (a[0] + a[1]) + (a[2] + a[3])
            u += (a[4] + a[5]) + (a[6] + a[7])
        # Shell outcomes lie on u = ct exactly; normalising leaves rounding.
        np.copyto(u, self.params.c * self.horizon,
                  where=self.n_events < self.params.dim)
        return u

    @cached_property
    def final_direction(self) -> np.ndarray:
        """The direction of each path's last segment, 1-based."""
        return cycle_index(self.initial_direction, self.n_events,
                           self.params.n_directions)

    @cached_property
    def _stratum_codes(self) -> np.ndarray:
        """Index of each outcome's stratum in `stratum_labels`."""
        return np.minimum(self.n_events, self.params.dim)

    @cached_property
    def strata(self) -> np.ndarray:
        return np.array(stratum_labels(self.params.dim))[self._stratum_codes]

    def __len__(self) -> int:
        return len(self.n_events)

    def stratum_counts(self) -> dict[str, int]:
        counts = np.bincount(self._stratum_codes,
                             minlength=self.params.dim + 1)
        return {label: int(k) for label, k
                in zip(stratum_labels(self.params.dim), counts) if k}


def _direction_index(u, two_d: int):
    """The 0-based initial direction ``floor(u * 2d)`` of uniform(s) u, at
    most 2d - 1: `rng` returns u = 1 for its largest value."""
    return np.minimum(u * two_d, two_d - 1).astype(np.int64)


def sample_path(params: ModelParams, horizon: float,
                stream: rng.Substream) -> MotionPath:
    """Unconditional path: uniform initial direction, Poisson switches."""
    horizon = require_horizon(horizon, params=params)
    j0 = 1 + int(_direction_index(stream.uniform(), params.n_directions))
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
    horizon = require_horizon(horizon, params=params)
    if require_int(n, "n") < 0:
        raise ValueError("n must be >= 0")
    j0 = 1 + int(_direction_index(stream.uniform(), params.n_directions))
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
        d = Direction(cycle_index(j, k, p.n_directions), p.dim)
        pos[d.axis] += d.sign * p.c * (times[k + 1] - times[k])
    n = len(path.switch_times)
    u = float(np.sum(np.abs(pos)))
    stratum = classify_stratum(n, p.dim)
    if n < p.dim and abs(u - p.c * t) > _STRATUM_TOL * p.c * t:
        raise AssertionError(
            f"shell outcome with u={u} != ct={p.c * t}; path invariant broken")
    final = Direction(cycle_index(j, n, p.n_directions), p.dim)
    return MotionOutcome(params=p, horizon=t, position=pos, u=u, n_events=n,
                         initial_direction=path.initial_direction,
                         final_direction=final, stratum=stratum)


def _poisson_table(mu: float) -> tuple[int, np.ndarray]:
    """``(lo, F)`` with ``F[k] = P(N <= lo + k)`` over the support of
    N ~ Poisson(mu) from `laws._poisson_support`, the last entry set to
    1.  `rng` uniforms are >= 2**-54, so inversion never lands below
    ``lo`` and the O(sqrt(mu)) entries invert exactly as the full table.
    """
    lo, hi = _poisson_support(mu)
    cdf = special.pdtr(np.arange(lo, hi + 1), mu)
    cdf[-1] = 1.0
    return lo, cdf


def _guide_table(cdf: np.ndarray) -> np.ndarray:
    """``guide[k]``, the first index i with ``cdf[i] >= k/K``, for k in
    0..K+1: K is the smallest power of two >= 16 ``cdf.size``, at most
    `_GUIDE_MAX`, so k/K is exact.  Entry K+1 is ``cdf.size``, past every
    index, so the uniform 1.0 (bucket K) is always searched."""
    k = min(1 << (16 * cdf.size - 1).bit_length(), _GUIDE_MAX)
    return np.searchsorted(cdf, np.arange(k + 2) / k)


def _invert(cdf: np.ndarray, guide: np.ndarray, u: np.ndarray) -> np.ndarray:
    """``np.searchsorted(cdf, u)`` through the guide table of `_guide_table`.

    A uniform u in (0, 1] falls in bucket k = floor(u K) (u K is exact),
    and its index lies between ``guide[k]`` and ``guide[k+1]``: where the
    two agree that is the answer, and only the other lanes (about one in
    16 while the table has at most 2^12 entries) are searched.  `rng`
    rounds its largest value to 1.0, whose bucket K is searched.
    """
    k = guide.size - 2
    b = (u * k).astype(np.intp)
    n = guide[b]
    split = np.flatnonzero(n != guide[b + 1])
    n[split] = np.searchsorted(cdf, u[split])
    return n


def _class_gammas(keys: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Gamma(m[q, i]) variates for class q of replication i (0 where m is 0).

    Every variate reads fixed slots of substream ``keys[i]`` (layout in
    `rng`).  ``m[q, i]`` does not grow with q, so the loop over the
    class pairs (2p, 2p+1) stops at the first pair no lane has.

    A shape m up to `_EXP_TERMS` is a sum of m exponentials, from slots
    ``_SLOT_EXP + _EXP_TERMS*q + k``: one draw per term over the block,
    the term masked to -0.0 where a lane has fewer terms, so an empty
    class is +0.0 whether the block draws it or not.  Larger shapes use
    the Marsaglia-Tsang (2000) rejection method.  The first attempt of
    pair p is one draw of 4 slots over the lanes where class 2p is above
    `_EXP_TERMS`: a Box-Muller radius and angle whose normals r cos and
    r sin serve classes 2p and 2p+1, and one acceptance uniform for each
    class.
    The rejected lanes (under 1%) go on after the pass, one entry per
    lane, 3 slots (radius, angle, acceptance) per attempt.  A lane
    reads the same slots and does the same float operations whatever
    its neighbours need, so the output does not depend on the layout.
    """
    two_d, rows = m.shape
    g = np.zeros(m.shape)
    hi, lo = m.max(axis=1), m.min(axis=1)
    first = _SLOT_EXP + _EXP_TERMS * two_d
    rejected = []
    for q0 in range(0, two_d, 2):
        if hi[q0] == 0:
            break  # so are the later classes
        for q in (q0, q0 + 1):
            if hi[q] and lo[q] <= _EXP_TERMS:
                _exp_sum(keys, m[q], hi[q], lo[q],
                         _SLOT_EXP + _EXP_TERMS * q, g[q])
        if hi[q0] > _EXP_TERMS:
            _pair_attempt(keys, m, hi, lo, q0, first + 2 * q0, g, rejected)
    if not rejected:
        return g
    # The rejected lanes go on from attempt 1, one entry per lane.
    f = np.concatenate(rejected)
    q, i = np.divmod(f, rows)
    slot = first + 2 * two_d + 3 * q
    shape = m[q, i] - 1.0 / 3.0
    flat = g.reshape(-1)  # a view: lane (q, i) is entry q*rows + i
    while f.size:
        u = rng.uniform_column(np.broadcast_to(keys[i], (3, f.size)),
                               slot + _ROWS[:3])
        _box_muller(u, paired=False)
        v, accept = _tsang(u[0], u[2], shape)
        flat[f[accept]] = v[accept]
        reject = ~accept
        f, i, shape = f[reject], i[reject], shape[reject]
        slot = slot[reject] + 3 * two_d
    return g


def _pair_attempt(keys, m, hi, lo, q0, slot, g, rejected):
    """First Marsaglia-Tsang attempt of classes q0 and q0 + 1 (q0 even)
    from one draw of slots ``slot .. slot+3`` over the lanes where class
    q0 is above `_EXP_TERMS`; class q0 + 1 takes it on a subset of them.
    Writes the variates to ``g`` and appends the rejected flat entries
    ``q*rows + i`` to ``rejected``."""
    rows = m.shape[1]
    r = (slice(None) if lo[q0] > _EXP_TERMS
         else np.flatnonzero(m[q0] > _EXP_TERMS))
    kr = keys[r]
    u = rng.uniform_column(np.broadcast_to(kr, (4, kr.size)), slot + _ROWS)
    _box_muller(u, paired=hi[q0 + 1] > _EXP_TERMS)
    for q, x, w in ((q0, u[0], u[2]), (q0 + 1, u[1], u[3])):
        if hi[q] <= _EXP_TERMS:
            break
        if q > q0 and lo[q] <= _EXP_TERMS:
            sub = np.flatnonzero(m[q, r] > _EXP_TERMS)
            r, x, w = np.arange(rows)[r][sub], x[sub], w[sub]
        # the rejected lanes are overwritten later
        g[q, r], accept = _tsang(x, w, m[q, r] - 1.0 / 3.0)
        rejected.append(q * rows + np.arange(rows)[r][~accept])


def _exp_sum(keys, mq, hi, lo, slot, out):
    """Subtracts from ``out`` (zeros) the logs of the uniforms in slots
    ``slot ..``, mq of them per lane: Gamma(mq) for shapes up to
    `_EXP_TERMS` (lanes above it get a value to be overwritten)."""
    for k in range(min(hi, _EXP_TERMS)):
        e = np.log(rng.uniform_column(keys, slot + k))
        if lo <= k:
            e *= mq > k  # a masked lane subtracts -0.0: no change
        out -= e


def _box_muller(u, paired):
    """Box-Muller normals in place from the radius row ``u[0]`` and the
    angle row ``u[1]``: ``u[0]`` becomes r cos(theta) and, if ``paired``,
    ``u[1]`` becomes r sin(theta), the sine taken as
    ``sqrt((1 - cos)(1 + cos))``, negative for theta above pi."""
    r, a = u[0], u[1]
    np.log(r, out=r)
    r *= -2.0
    np.sqrt(r, out=r)
    c = a * (2.0 * np.pi)
    np.cos(c, out=c)
    if paired:
        s = 1.0 - c
        s *= 1.0 + c
        np.sqrt(s, out=s)
        np.subtract(0.5, a, out=a)  # negative for theta above pi
        np.copysign(s, a, out=a)
        a *= r
    r *= c


def _tsang(x, w, shape):
    """One Marsaglia-Tsang attempt per lane from the normals ``x`` and the
    acceptance uniforms ``w`` (both overwritten): ``(variate, accept)``."""
    v = 9.0 * shape
    np.sqrt(v, out=v)
    np.divide(1.0, v, out=v)
    v *= x
    v += 1.0
    cube = v * v
    cube *= v
    bound = np.subtract(1.0, cube, out=v)
    with np.errstate(invalid="ignore", divide="ignore"):
        bound += np.log(cube)
    bound *= shape
    x *= x
    x *= 0.5
    bound += x
    np.log(w, out=w)
    accept = w < bound
    accept &= cube > 0
    cube *= shape
    return cube, accept


def simulate_ensemble(params: ModelParams, horizon: float, count: int,
                      seed: int, conditioning: int | None = None) -> SampleSet:
    """count independent outcomes; replication i depends only on (seed, i).

    With ``conditioning=n`` every path has exactly n switches.
    """
    count, seed = require_int(count, "count"), require_int(seed, "seed")
    if count < 1:
        raise ValueError("count must be >= 1")
    t = require_horizon(horizon, params=params)
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
        typical = lo + int(np.searchsorted(cdf, 0.5))  # the Poisson median
    else:
        typical = conditioning
    ct = params.c * t
    n_events = np.empty(count, dtype=np.int64)
    j0 = np.empty(count, dtype=np.int64)
    coords = np.empty((dim, count))

    def block(start: int) -> None:
        stop = min(start + _BLOCK_ROWS, count)
        rows = stop - start
        keys = rng.substream_keys(seed, start, rows)
        j = _direction_index(rng.uniform_column(keys, _SLOT_DIRECTION), two_d)
        np.add(j, 1, out=j0[start:stop])
        n = (conditioning if conditioning is not None else
             lo + _invert(cdf, guide, rng.uniform_column(keys, _SLOT_POISSON)))
        n_events[start:stop] = n
        # A conditioned block's class sizes are one column, broadcast.
        m = np.broadcast_to(class_sizes(n + 1, two_d), (two_d, rows))
        g = _class_gammas(keys, m)
        total = g.sum(axis=0)
        # diff[e] is class e mod 2d minus its opposite class e + d (mod 2d);
        # rows 2d.. repeat rows 0..d-1, so every index below is in range.
        diff = np.empty((two_d + dim, rows))
        np.subtract(g[:dim], g[dim:], out=diff[:dim])
        np.subtract(g[dim:], g[:dim], out=diff[dim:two_d])
        del g
        diff[two_d:] = diff[:dim]
        # The gather inverts `cycle_index`: class q runs along direction
        # cycle_index(j + 1, q, 2d), so flat entry (a + 2d - j)*rows + i
        # is the class that runs along +e_{a+1}, minus its opposite.
        # ("clip" clips nothing here; unlike "raise" it writes straight
        # to ``out``.)
        flat = diff.reshape(-1)
        index = np.arange(two_d * rows, (two_d + 1) * rows)
        j *= rows
        index -= j
        x = coords[:, start:stop]
        for a in range(dim):
            flat[a * rows:].take(index, out=x[a], mode="clip")
        del diff, flat
        x /= total
        x *= ct

    # The caller and its helpers each take the next unstarted block.
    # Helpers start only where the typical path's largest class, class
    # 0, takes a Marsaglia-Tsang attempt: it holds more than _EXP_TERMS
    # of the typical + 1 segments exactly when typical >= _EXP_TERMS * 2d.
    blocks = range(0, count, _BLOCK_ROWS)
    tsang = typical >= _EXP_TERMS * two_d
    workers = min(_WORKERS, len(blocks)) if tsang else 1
    starts = iter(blocks)
    lock = threading.Lock()

    def run() -> None:
        while True:
            with lock:
                start = next(starts, None)
            if start is None:
                return
            block(start)

    # Threads start on submit; leaving the block joins them, so no
    # thread writes to the output after the return.
    with ThreadPoolExecutor(max(workers - 1, 1),
                            thread_name_prefix="simulate-block") as pool:
        helpers = [pool.submit(run) for _ in range(1, workers)]
        run()
    for h in helpers:
        h.result()  # re-raises a helper's exception
    return SampleSet(params=params, horizon=t, conditioning=conditioning,
                     seed=seed, n_events=n_events, coordinates=coords,
                     initial_direction=j0)
