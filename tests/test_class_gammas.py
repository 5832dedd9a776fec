"""Samplers `classsum-2` and `classsum-3` (one Gamma kernel): its slot
reads and the law of its paired classes.

Classes 2p and 2p+1 share the Box-Muller pair of their first rejection
attempt, and each class reads its own slots of the replication's
substream (layout in the `rng` docstring).  Two classes that shared a
slot would be correlated, and no marginal test would notice, so the
reads are recorded and checked against the layout; the paired classes
are tested for their Gamma laws, for correlation and for coinciding
rejections.  The class sizes and the cycle's direction order of `model`
are checked against oracles of their own here.
"""

import itertools

import numpy as np
import pytest
from scipy import stats as sps

from cyclic_motion import rng, simulate, stats
from cyclic_motion.model import (Direction, ModelParams, class_sizes,
                                 cycle_index)


def _recording(reads):
    """`rng.uniform_column` that appends ``(np.size(keys), keys, slots,
    values drawn)`` of every call, the keys and slots broadcast to the
    shape of the draw."""
    uniform_column = rng.uniform_column

    def column(keys, j):
        u = uniform_column(keys, j)
        reads.append((np.size(keys), *np.broadcast_arrays(keys, j), u.size))
        return u

    return column


def _class_sizes(n, two_d):
    q = np.arange(two_d)[:, None]
    return (n + 1) // two_d + (q < (n + 1) % two_d)


@pytest.mark.parametrize("dim", range(1, 9))
def test_class_sizes_match_the_oracle(dim):
    two_d = 2 * dim
    n = np.arange(4 * two_d + 1)
    assert np.array_equal(class_sizes(n + 1, two_d), _class_sizes(n, two_d))
    for k in n.tolist():  # a scalar gives one column
        assert np.array_equal(class_sizes(k + 1, two_d),
                              _class_sizes(k, two_d))


@pytest.mark.parametrize("dim", range(1, 9))
def test_cycle_index_walks_the_direction_order(dim):
    # +e_1..+e_d, -e_1..-e_d as (sign, axis), wrapping around
    order = [(1, a) for a in range(dim)] + [(-1, a) for a in range(dim)]
    two_d, ks = 2 * dim, np.arange(3 * 2 * dim + 2)
    for j in range(1, two_d + 1):
        walk = list(itertools.islice(itertools.cycle(order), j - 1,
                                     j - 1 + ks.size))
        ints = [cycle_index(j, k, two_d) for k in ks.tolist()]
        assert [(d.sign, d.axis)
                for d in (Direction(i, dim) for i in ints)] == walk
        js = np.full(ks.size, j)
        assert np.array_equal(cycle_index(js, ks, two_d), ints)
        assert np.all(js == j)  # the array call leaves its input alone
        assert np.array_equal(cycle_index(j, ks, two_d), ints)


SLOT_CASES = ([(dim, lam_t, None) for dim in range(1, 9)
               for lam_t in (1.0, 16.0, 1024.0)]
              + [(dim, 1.0, n) for dim in range(1, 9) for n in (2, 14, 40)])


@pytest.mark.parametrize("dim, lam_t, n", SLOT_CASES)
def test_no_slot_is_read_twice(monkeypatch, dim, lam_t, n):
    count, seed = 1500, 40 + dim
    reads = []
    monkeypatch.setattr(simulate, "_BLOCK_ROWS", 600)
    monkeypatch.setattr(rng, "uniform_column", _recording(reads))
    s = simulate.simulate_ensemble(ModelParams(c=1.0, lam=lam_t, dim=dim),
                                   1.0, count, seed, conditioning=n)
    keys = rng.substream_keys(seed, 0, count)
    order = np.argsort(keys)
    read_keys = np.concatenate([k.ravel() for _, k, _, _ in reads])
    slot = np.concatenate([j.ravel() for _, _, j, _ in reads]).astype(np.int64)
    lane = order[np.searchsorted(keys[order], read_keys)]
    assert np.array_equal(keys[lane], read_keys)
    pair = lane * (1 << 32) + slot
    assert np.unique(pair).size == pair.size, "a slot was read twice"

    two_d = 2 * dim
    first, retry = 2 + 6 * dim, 2 + 10 * dim
    m = _class_sizes(s.n_events, two_d)
    assert slot.min() >= 0
    per_lane = np.bincount(lane[slot == 0], minlength=count)
    assert np.all(per_lane == 1)  # the initial direction
    per_lane = np.bincount(lane[slot == 1], minlength=count)
    assert np.all(per_lane == (n is None))  # the Poisson draw
    read = set(pair.tolist())
    # a class of at most 3 segments reads its exponential slots 2 + 3q + k
    for q in range(two_d):
        for k in range(3):
            need = np.flatnonzero((k < m[q]) & (m[q] <= 3))
            assert read.issuperset((need * (1 << 32) + 2 + 3 * q + k)
                                   .tolist())
    # first attempt of pair p: 4 slots where class 2p is above 3, else none
    attempt = (slot >= first) & (slot < retry)
    p = (slot[attempt] - first) // 4
    assert np.all(m[2 * p, lane[attempt]] > 3)
    big = m[0::2] > 3
    assert attempt.sum() == 4 * np.count_nonzero(big)
    # later attempts, 3 slots each, only for classes above 3
    later = slot >= retry
    q = (slot[later] - retry) // 3 % two_d
    assert np.all(m[q, lane[later]] > 3)
    assert np.count_nonzero(later) % 3 == 0


@pytest.mark.parametrize("dim, lam_t, n", [(3, 64.0, None), (2, 1.0, 14),
                                           (1, 4.0, None)])
def test_counted_keys_equal_the_values_drawn(monkeypatch, dim, lam_t, n):
    # perfbench counts np.size(keys) per call as the values a call draws
    reads = []
    monkeypatch.setattr(rng, "uniform_column", _recording(reads))
    simulate.simulate_ensemble(ModelParams(c=1.0, lam=lam_t, dim=dim), 1.0,
                               simulate._BLOCK_ROWS, 3, conditioning=n)
    assert len(reads) > 3
    assert (sum(size for size, _, _, _ in reads)
            == sum(values for _, _, _, values in reads))


LANES = 20_000


def _gammas(sizes, seed, lanes=LANES):
    m = np.array(sizes)
    if m.ndim == 1:
        m = np.broadcast_to(m[:, None], (m.size, lanes))
    return m, simulate._class_gammas(rng.substream_keys(seed, 0, lanes), m)


def _assert_gamma_law(g, shape, name):
    rep = stats.ks_one_sample(np.sort(g), sps.gamma(shape).cdf, name=name)
    assert rep.passed, rep.line()


def _assert_uncorrelated(a, b):
    r = np.corrcoef(a, b)[0, 1]
    assert abs(r) < 4.0 / np.sqrt(a.size), r


@pytest.mark.parametrize("shape", [4, 5, 17, 256])
def test_paired_classes_are_independent_gammas(monkeypatch, shape):
    # two pairs: classes 0, 1 and 2, 3 share the Box-Muller pairs
    reads = []
    monkeypatch.setattr(rng, "uniform_column", _recording(reads))
    m, g = _gammas([shape] * 4, 600 + shape)
    for q in range(4):
        _assert_gamma_law(g[q], shape, f"class{q}_m{shape}")
    for a, b in ((0, 1), (2, 3), (0, 2), (1, 3)):
        _assert_uncorrelated(g[a], g[b])
    # A class rejected at its first attempt reads attempt 1's radius slot
    # 2 + 10d + 3q.  The paired classes must not share an acceptance
    # uniform, which would make their rejections coincide.
    retry = 2 + 10 * 2
    slot = np.concatenate([j.ravel() for _, _, j, _ in reads])
    read_keys = np.concatenate([k.ravel() for _, k, _, _ in reads])
    keys = rng.substream_keys(600 + shape, 0, LANES)
    rejected = [np.isin(keys, read_keys[slot == retry + 3 * q])
                for q in range(4)]
    for a, b in ((0, 1), (2, 3)):
        ra, rb = rejected[a], rejected[b]
        table = [[np.sum(ra & rb), np.sum(ra & ~rb)],
                 [np.sum(~ra & rb), np.sum(~ra & ~rb)]]
        assert sps.fisher_exact(table).pvalue > stats.ALPHA, table


@pytest.mark.parametrize("shape", [4, 17])
def test_pair_with_a_small_second_class(shape):
    # class 0 takes rejection, its partner class 1 is a sum of 3
    m, g = _gammas([shape, 3], 700 + shape)
    _assert_gamma_law(g[0], shape, f"class0_m{shape}")
    _assert_gamma_law(g[1], 3, "class1_m3")
    _assert_uncorrelated(g[0], g[1])


def test_pair_with_mixed_lanes():
    # in one block class 1 is above 3 on half the lanes and 3 on the rest
    m = np.array([[5] * LANES, [4, 3] * (LANES // 2)])
    _, g = _gammas(m, 800)
    for k, shape in ((0, 4), (1, 3)):
        lanes = np.flatnonzero(m[1] == shape)
        _assert_gamma_law(g[0, lanes], 5, f"class0_m5_lanes{k}")
        _assert_gamma_law(g[1, lanes], shape, f"class1_m{shape}")
        _assert_uncorrelated(g[0, lanes], g[1, lanes])
