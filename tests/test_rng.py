"""Substream RNG: determinism, batching independence, uniformity."""

import math

import numpy as np
import pytest
from scipy import special

from cyclic_motion import rng


def test_mix64_zero_fixed_point():
    assert rng.mix64(0) == 0


def test_mix64_matches_vector_path():
    values = np.array([1, 2, 2 ** 63, 0xDEADBEEF, 12345678901234567],
                      dtype=np.uint64)
    vec = rng._mix64_inplace(values.copy())
    for v, m in zip(values.tolist(), vec.tolist()):
        assert rng.mix64(int(v)) == int(m)


def test_mix64_wraps_to_64_bits():
    assert rng.mix64(1 << 64) == rng.mix64(0)
    assert rng.mix64((1 << 64) + 99) == rng.mix64(99)


def test_substream_keys_match_scalar():
    seed = 20260816
    keys = rng.substream_keys(seed, 0, 32)
    for i in range(32):
        assert int(keys[i]) == rng.substream_key(seed, i)
    shifted = rng.substream_keys(seed, 7, 5)
    for i in range(5):
        assert int(shifted[i]) == rng.substream_key(seed, 7 + i)


def test_uniform_column_matches_scalar():
    keys = rng.substream_keys(42, 0, 16)
    for j in (0, 1, 5):
        col = rng.uniform_column(keys, j)
        for i in range(16):
            assert col[i] == rng.uniform_value(int(keys[i]), j)


def test_uniform_column_per_key_slots():
    keys = rng.substream_keys(42, 0, 16)
    slots = np.arange(16) * 5 + 1
    col = rng.uniform_column(keys, slots)
    for i in range(16):
        assert col[i] == rng.uniform_value(int(keys[i]), int(slots[i]))


def test_substream_sequential_matches_columns():
    stream = rng.Substream(7, 3)
    first = stream.uniform()
    rest = stream.uniforms(4)
    key = rng.substream_key(7, 3)
    assert first == rng.uniform_value(key, 0)
    for j, v in enumerate(rest):
        assert v == rng.uniform_value(key, 1 + j)


@pytest.mark.parametrize("seed, index", [(True, 0), (1.5, 0), (1.0, 0),
                                         (7, False), (7, 3.0), ("7", 3)])
def test_substream_takes_integer_seed_and_index(seed, index):
    # True ran seed 1 and 1.5 raised TypeError from the bit mask
    with pytest.raises(ValueError, match="must be an integer"):
        rng.Substream(seed, index)


def test_substream_takes_numpy_integers():
    stream = rng.Substream(np.int64(7), np.uint32(3))
    assert (stream.seed, stream.index) == (7, 3)
    assert stream.uniform() == rng.Substream(7, 3).uniform()


def test_uniforms_open_interval():
    keys = rng.substream_keys(1, 0, 100_000)
    u = rng.uniform_column(keys, 0)
    assert u.min() > 0.0
    assert u.max() < 1.0


def test_same_inputs_same_values():
    a = rng.uniform_column(rng.substream_keys(9, 0, 1000), 2)
    b = rng.uniform_column(rng.substream_keys(9, 0, 1000), 2)
    assert np.array_equal(a, b)


def test_different_seeds_decorrelated():
    a = rng.uniform_column(rng.substream_keys(1, 0, 10_000), 0)
    b = rng.uniform_column(rng.substream_keys(2, 0, 10_000), 0)
    assert not np.array_equal(a, b)
    assert abs(np.corrcoef(a, b)[0, 1]) < 0.05


@pytest.mark.parametrize("j", [0, 1, 17])
def test_uniformity_ks(j):
    n = 100_000
    u = np.sort(rng.uniform_column(rng.substream_keys(314159, 0, n), j))
    grid = np.arange(1, n + 1) / n
    d = max(np.max(grid - u), np.max(u - (grid - 1.0 / n)))
    p = special.kolmogorov(math.sqrt(n) * d)
    assert p > 0.01


def test_exponential_mean():
    stream = rng.Substream(5, 0)
    rate = 2.0
    draws = np.array([stream.exponential(rate) for _ in range(20_000)])
    se = draws.std(ddof=1) / math.sqrt(draws.size)
    assert abs(draws.mean() - 1.0 / rate) < 4 * se


def test_uniform_column_broadcast_slots():
    # a (slots, keys) block in one call equals one call per slot
    keys = rng.substream_keys(42, 0, 16)
    slots = np.array([[0], [3], [9]])
    block = rng.uniform_column(np.broadcast_to(keys, (3, 16)), slots)
    assert block.shape == (3, 16)
    for row, j in zip(block, slots[:, 0]):
        assert row.tobytes() == rng.uniform_column(keys, int(j)).tobytes()
    assert rng.uniform_column(keys, slots).tobytes() == block.tobytes()
