"""Counter-based random number substreams.

Every replication ``i`` of an ensemble owns its own substream, derived
from ``(seed, i)`` by a SplitMix64-style bit mixer.  Value ``j`` of
substream ``i`` is a pure function of ``(seed, i, j)``, so results are
identical no matter how replications are batched or parallelised, and
any single path can be reproduced in isolation.

Slot layout of `simulate` samplers ``classsum-2`` and ``classsum-3`` (d =
dimension, 2d direction classes, paired as classes 2p and 2p+1 for p < d):

* value 0: the initial direction;
* value 1: the Poisson inversion of the switch count (unused when
  the count is fixed by conditioning);
* values 2 .. 6d+1: three slots per class q, at 2 + 3q + k; a class of
  m <= 3 segments is the sum of ``-log`` of its values k < m (a block
  may read the others and leave them unused);
* values 6d+2 .. 10d+1: the first Gamma rejection attempt of pair p,
  at 6d + 2 + 4p + k: the Box-Muller radius (k = 0) and angle (k = 1),
  whose normals r cos and r sin go to classes 2p and 2p+1, and the
  acceptance uniforms of class 2p (k = 2) and class 2p+1 (k = 3).  All
  four are read where class 2p has more than 3 segments; k = 3 is used
  only where class 2p+1 has too;
* from 10d+2 on: the later attempts, three slots each (radius, angle of
  a cosine normal, acceptance), at 10d + 2 + 3(2d(a-1) + q) + k for
  attempt a >= 1 of class q.

A draw of several slots is one `uniform_column` call over an array of
slots (one row per slot, one column per lane) with the keys broadcast
to the same shape, so ``np.size(keys)`` is the number of values drawn.

The scalar event-time oracle `simulate.sample_path` instead reads
value 0 and then values 1, 2, ... in order as exponential gaps (or, when
conditioned, as the n uniform switch times).
"""

from __future__ import annotations

import numpy as np

from .model import require_int

GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_MASK = (1 << 64) - 1

# uint64 constants for the vectorised path
_U_GOLDEN = np.uint64(GOLDEN)
_U_MIX1 = np.uint64(_MIX1)
_U_MIX2 = np.uint64(_MIX2)
_SHIFT_30 = np.uint64(30)
_SHIFT_27 = np.uint64(27)
_SHIFT_31 = np.uint64(31)
_SHIFT_11 = np.uint64(11)
_TO_UNIT = 2.0 ** -53


def mix64(z: int) -> int:
    """SplitMix64 finaliser on a 64-bit integer (scalar reference)."""
    z &= _MASK
    z ^= z >> 30
    z = (z * _MIX1) & _MASK
    z ^= z >> 27
    z = (z * _MIX2) & _MASK
    z ^= z >> 31
    return z


def _mix64_inplace(z: np.ndarray) -> np.ndarray:
    """SplitMix64 finaliser applied to a uint64 array in place."""
    z ^= z >> _SHIFT_30
    z *= _U_MIX1
    z ^= z >> _SHIFT_27
    z *= _U_MIX2
    z ^= z >> _SHIFT_31
    return z


def substream_key(seed: int, index: int) -> int:
    """Key of substream ``index`` under ``seed``."""
    return mix64((seed & _MASK) ^ mix64(((index + 1) * GOLDEN) & _MASK))


def substream_keys(seed: int, start: int, count: int) -> np.ndarray:
    """Keys of substreams ``start .. start+count-1`` as a uint64 array."""
    idx = np.arange(start + 1, start + count + 1, dtype=np.uint64)
    with np.errstate(over="ignore"):
        keys = _mix64_inplace(idx * _U_GOLDEN)
        keys ^= np.uint64(seed & _MASK)
        return _mix64_inplace(keys)


def stream_value(key: int, j: int) -> int:
    """Raw 64-bit value ``j`` of the substream with the given key."""
    return mix64((key + (j + 1) * GOLDEN) & _MASK)


def uniform_column(keys: np.ndarray, j) -> np.ndarray:
    """Value ``j`` of every substream in ``keys``, mapped to (0, 1).

    ``j`` is one slot for every key or an integer array of slots that
    broadcasts against ``keys``; the result has the broadcast shape.
    A block of slots for the same keys is one call with ``keys``
    broadcast to the block's shape (``np.broadcast_to`` makes no copy).
    The top 53 bits are used, offset by half an ulp: 0 is never returned,
    so ``-log(u)`` is always finite, but the largest value rounds to 1.
    """
    with np.errstate(over="ignore"):
        z = keys + (np.asarray(j, dtype=np.uint64) + np.uint64(1)) * _U_GOLDEN
        _mix64_inplace(z)
    z >>= _SHIFT_11
    # z < 2**53: the signed view converts exactly, and faster
    u = z.view(np.int64).astype(np.float64)
    u += 0.5
    u *= _TO_UNIT
    return u


def uniform_value(key: int, j: int) -> float:
    """Scalar counterpart of :func:`uniform_column`."""
    return ((stream_value(key, j) >> 11) + 0.5) * _TO_UNIT


class Substream:
    """Sequential view of one substream, for single-path sampling.

    Wraps ``(seed, index)`` and hands out the stream values in order,
    tracking the cursor.  The same values are produced by the
    vectorised column functions; tests assert the two routes agree.
    """

    def __init__(self, seed: int, index: int):
        self.seed = require_int(seed, "seed")
        self.index = require_int(index, "index")
        self.key = substream_key(self.seed, self.index)
        self.cursor = 0

    def uniform(self) -> float:
        u = uniform_value(self.key, self.cursor)
        self.cursor += 1
        return u

    def uniforms(self, count: int) -> np.ndarray:
        out = np.array([uniform_value(self.key, self.cursor + j)
                        for j in range(count)])
        self.cursor += count
        return out

    def exponential(self, rate: float) -> float:
        return -np.log(self.uniform()) / rate
