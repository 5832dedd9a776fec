"""Path simulation: evolve semantics, shell law, strata, conditioning."""

import math
import threading

import numpy as np
import pytest

from scipy import special
from scipy.stats import poisson

from cyclic_motion import laws, rng, simulate, stats
from cyclic_motion.model import Direction, ModelParams, classify_stratum
from cyclic_motion.simulate import (MotionPath, evolve, sample_path,
                                    sample_path_conditional,
                                    simulate_ensemble)
from cyclic_motion.rng import Substream

P2 = ModelParams(c=1.0, lam=1.0, dim=2)
P3 = ModelParams(c=1.0, lam=1.0, dim=3)


def test_direction_geometry():
    d1 = Direction(1, 2)
    assert d1.axis == 0 and d1.sign == 1
    d4 = Direction(4, 2)
    assert d4.axis == 1 and d4.sign == -1
    with pytest.raises(ValueError):
        Direction(0, 2)
    with pytest.raises(ValueError):
        Direction(5, 2)
    with pytest.raises(ValueError, match="dim must be an integer"):
        Direction(1, 2.0)
    assert Direction(np.int64(2), 2).axis == 1


@pytest.mark.parametrize("index", [1.5, True, 2.0, np.float64(1)],
                         ids=["1.5", "True", "float", "numpy-float"])
def test_direction_rejects_non_integer_index(index):
    with pytest.raises(ValueError, match="direction index must be an integer"):
        Direction(index, 2)


def test_cycle_wraps_through_all_directions():
    seen = [evolve(MotionPath(P3, 1.0, Direction(1, 3),
                              np.linspace(0.1, 0.9, n))).final_direction.index
            for n in range(7)]
    assert seen == [1, 2, 3, 4, 5, 6, 1]


def test_classify_stratum():
    assert classify_stratum(0, 3) == "vertex"
    assert classify_stratum(1, 3) == "face1"
    assert classify_stratum(2, 3) == "face2"
    assert classify_stratum(3, 3) == "interior"
    assert classify_stratum(0, 2) == "vertex"
    assert classify_stratum(1, 2) == "face1"
    assert classify_stratum(2, 2) == "interior"


@pytest.mark.parametrize("n", [1.5, True, np.float64(1)],
                         ids=["1.5", "True", "numpy-float"])
def test_classify_stratum_rejects_non_integer_count(n):
    # 1.5 was labelled 'face1.5'
    with pytest.raises(ValueError, match="n_events must be an integer"):
        classify_stratum(n, 2)


def test_evolve_two_switches_planar():
    path = MotionPath(P2, 1.0, Direction(1, 2), np.array([0.3, 0.7]))
    out = evolve(path)
    assert out.position == pytest.approx([0.0, 0.4], abs=1e-12)
    assert out.u == pytest.approx(0.4, abs=1e-12)
    assert out.stratum == "interior"
    assert out.n_events == 2
    assert out.final_direction.index == 3


def test_evolve_no_switch_hits_vertex():
    params = ModelParams(c=2.0, lam=1.0, dim=2)
    out = evolve(MotionPath(params, 1.0, Direction(1, 2), np.array([])))
    assert out.position == pytest.approx([2.0, 0.0])
    assert out.u == pytest.approx(2.0)
    assert out.stratum == "vertex"
    assert out.final_direction.index == 1


def test_evolve_two_switches_3d_face():
    out = evolve(MotionPath(P3, 1.0, Direction(1, 3), np.array([0.2, 0.5])))
    assert out.position == pytest.approx([0.2, 0.3, 0.5])
    assert out.stratum == "face2"
    assert out.u == pytest.approx(1.0)


def test_motion_path_validation():
    with pytest.raises(ValueError):
        MotionPath(P2, 1.0, Direction(1, 2), np.array([0.7, 0.3]))
    with pytest.raises(ValueError):
        MotionPath(P2, 1.0, Direction(1, 2), np.array([-0.1, 0.5]))
    with pytest.raises(ValueError):
        MotionPath(P2, 1.0, Direction(1, 2), np.array([0.5, 1.5]))


def test_sample_path_reproducible_and_valid():
    a = sample_path(P2, 1.0, Substream(11, 0))
    b = sample_path(P2, 1.0, Substream(11, 0))
    assert a.initial_direction == b.initial_direction
    assert np.array_equal(a.switch_times, b.switch_times)
    assert np.all(np.diff(a.switch_times) >= 0)
    assert a.switch_times.size == 0 or a.switch_times[-1] < 1.0


def test_sample_path_conditional_count():
    for n in (0, 1, 5):
        p = sample_path_conditional(P3, 2.0, n, Substream(3, 7))
        assert p.switch_times.size == n
        assert np.all((p.switch_times > 0) & (p.switch_times < 2.0))


@pytest.mark.parametrize("n", [2.5, True, 2.0], ids=["2.5", "True", "float"])
def test_sample_path_conditional_rejects_non_integer_n(n):
    # 2.5 raised TypeError in range() and True drew one switch
    with pytest.raises(ValueError, match="n must be an integer"):
        sample_path_conditional(P2, 1.0, n, Substream(1, 0))


def test_shell_law_and_stratum_equivalence():
    # u <= ct always; u == ct exactly when fewer than dim switches
    s = simulate_ensemble(P2, 1.0, 1_000_000, 99)
    ct = 1.0
    assert float(np.max(s.u)) <= ct * (1 + 1e-12)
    on_shell = np.abs(s.u - ct) <= 1e-9 * ct
    assert np.array_equal(on_shell, s.n_events < P2.dim)


def _classsum_reference(params, t, stream, n=None):
    """Scalar twin of `simulate_ensemble` for one replication.

    Reads the same substream slots one value at a time (layout in
    `rng`), inverts the Poisson count with scipy's ppf and evaluates
    sampler `classsum-2` in plain floats: a class of at most 3 segments
    is a sum of exponentials, and classes 2p and 2p+1 share the
    Box-Muller pair of their first Marsaglia-Tsang attempt.
    Returns ``(n_events, initial_index, position)``.
    """
    def uniform(slot):
        return rng.uniform_value(stream.key, slot)

    def tsang(x, accept_slot, shape):
        """One Marsaglia-Tsang attempt: the variate, or None if rejected."""
        v = 1.0 + (1.0 / math.sqrt(9.0 * shape)) * x
        v = v * v * v
        if v > 0 and (math.log(uniform(accept_slot))
                      < shape * (1.0 - v + math.log(v)) + x * x * 0.5):
            return v * shape
        return None

    two_d = params.n_directions
    j0 = 1 + min(int(uniform(0) * two_d), two_d - 1)
    if n is None:
        n = int(poisson.ppf(uniform(1), params.lam * t))
    sizes = [(n + 1) // two_d + (q < (n + 1) % two_d) for q in range(two_d)]
    first = 2 + 3 * two_d  # first attempt of pair p: slots first + 4p + k
    gammas = []
    for q, m in enumerate(sizes):
        if m <= 3:
            g = 0.0
            for k in range(m):
                g -= math.log(uniform(2 + 3 * q + k))
            gammas.append(g)
            continue
        shape = m - 1.0 / 3.0
        base = first + 4 * (q // 2)
        r = math.sqrt(-2.0 * math.log(uniform(base)))
        a = uniform(base + 1)
        c = math.cos(2.0 * math.pi * a)
        x = r * c if q % 2 == 0 else (
            r * math.copysign(math.sqrt((1.0 - c) * (1.0 + c)), 0.5 - a))
        g = tsang(x, base + 2 + q % 2, shape)
        slot = first + 2 * two_d + 3 * q  # attempt 1 of class q
        while g is None:
            x = (math.sqrt(-2.0 * math.log(uniform(slot)))
                 * math.cos(2.0 * math.pi * uniform(slot + 1)))
            g = tsang(x, slot + 2, shape)
            slot += 3 * two_d
        gammas.append(g)
    total = sum(gammas)
    pos = np.zeros(params.dim)
    for q, g in enumerate(gammas):
        d = Direction((j0 - 1 + q) % two_d + 1, params.dim)
        pos[d.axis] += d.sign * params.c * t * g / total
    return n, j0, pos


def _assert_matches_reference(s, params, t, seed, n=None):
    for i in range(len(s)):
        n_i, j0, pos = _classsum_reference(params, t, Substream(seed, i), n)
        assert pos == pytest.approx(s.positions[i], abs=1e-12)
        assert s.n_events[i] == n_i
        assert s.initial_direction[i] == j0
        assert s.final_direction[i] == (j0 - 1 + n_i) % params.n_directions + 1
        assert s.strata[i] == classify_stratum(n_i, params.dim)


def test_ensemble_matches_per_path_sampler():
    _assert_matches_reference(simulate_ensemble(P3, 1.0, 64, 123),
                              P3, 1.0, 123)


def test_conditional_ensemble_matches_per_path_sampler():
    s = simulate_ensemble(P2, 1.5, 32, 55, conditioning=3)
    _assert_matches_reference(s, P2, 1.5, 55, n=3)
    assert np.all(s.n_events == 3)


@pytest.mark.parametrize("dim, conditioning", [(2, None), (3, None), (3, 40)])
def test_ensemble_matches_reference_with_rejection_sampling(dim, conditioning):
    # lam*t = 64 (or n = 40) puts about 7-16 segments in every class, so
    # the gammas come from the Marsaglia-Tsang branch, not exponential sums
    params = ModelParams(c=2.0, lam=64.0, dim=dim)
    s = simulate_ensemble(params, 1.0, 48, 31, conditioning=conditioning)
    _assert_matches_reference(s, params, 1.0, 31, conditioning)


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("lam_t", [1.0, 64.0])
def test_ensemble_law_matches_event_time_oracle(dim, lam_t):
    # two-sample KS of the class-sum ensemble against the independent
    # event-time sampler: first coordinate and interior radius
    params = ModelParams(c=1.0, lam=lam_t, dim=dim)
    seed = 900 + dim + int(lam_t)
    oracle = [evolve(sample_path(params, 1.0, Substream(seed, i)))
              for i in range(3000)]
    s = simulate_ensemble(params, 1.0, 100_000, seed + 1)
    x1 = np.array([o.position[0] for o in oracle])
    u_in = np.array([o.u for o in oracle if o.n_events >= dim])
    for name, a, b in (("x1", s.positions[:, 0], x1),
                       ("u_interior", s.u[s.n_events >= dim], u_in)):
        rep = stats.ks_two_sample(np.sort(a), np.sort(b),
                                  name=f"{name}_dim{dim}_lt{lam_t:g}")
        assert rep.passed, rep.line()


def test_event_count_poisson_at_large_lambda_t():
    lt = 1024.0
    s = simulate_ensemble(ModelParams(c=32.0, lam=lt, dim=2), 1.0,
                          200_000, 19)
    count = s.n_events.size
    mean_rep = stats.moment_compare(s.n_events.astype(float), lt, 1,
                                    name="poisson_mean")
    assert mean_rep.passed, mean_rep.line()
    # sample variance: SE of s^2 for Poisson(mu) is sqrt((mu + 2 mu^2)/n)
    var = float(np.var(s.n_events, ddof=1))
    z = (var - lt) / math.sqrt((lt + 2 * lt * lt) / count)
    assert abs(z) < 3.0, f"variance {var} vs {lt}, z={z}"


def test_shell_outcomes_sit_exactly_on_ct():
    for dim in (2, 3):
        params = ModelParams(c=0.7, lam=1.0, dim=dim)
        s = simulate_ensemble(params, 1.3, 100_000, 37 + dim)
        shell = s.n_events < dim
        assert shell.any() and not shell.all()
        assert np.all(s.u[shell] == params.c * 1.3)
        assert np.all(s.u[~shell] < params.c * 1.3)


# `rng` maps its largest value to this uniform; it rounds to 1.0.
TOP_UNIFORM = ((((1 << 64) - 1) >> 11) + 0.5) * 2.0 ** -53


def _top_slot_column(slot):
    """`rng.uniform_column` with every read of ``slot`` set to the top
    uniform; ``j`` may be one slot or an array of slots."""
    uniform_column = rng.uniform_column

    def column(keys, j):
        u = uniform_column(keys, j)
        u[np.broadcast_to(j, u.shape) == slot] = TOP_UNIFORM
        return u

    return column


@pytest.mark.parametrize("dim", range(1, 9))
def test_largest_uniform_starts_in_the_last_direction(monkeypatch, dim):
    # floor(u * 2d) is 2d at u = 1, one past the last direction
    params = ModelParams(c=1.0, lam=1.5, dim=dim)
    uniform_value = rng.uniform_value

    def top_direction_value(key, j):
        return TOP_UNIFORM if j == 0 else uniform_value(key, j)

    monkeypatch.setattr(rng, "uniform_value", top_direction_value)
    monkeypatch.setattr(rng, "uniform_column",
                        _top_slot_column(simulate._SLOT_DIRECTION))
    for path in (sample_path(params, 1.0, Substream(5, 0)),
                 sample_path_conditional(params, 1.0, 3, Substream(5, 0))):
        assert path.initial_direction.index == params.n_directions
    s = simulate_ensemble(params, 1.0, 16, 5)
    assert np.all(s.initial_direction == params.n_directions)
    _assert_matches_reference(s, params, 1.0, 5)


def test_first_rejection_attempt_draws_only_the_lanes_that_need_it(
        monkeypatch):
    # dim 1; class 0 takes rejection on rows 0-2, class 1 on rows 0-1 only;
    # the pair's first attempt is 4 slots on each lane where class 0 does.
    # Class 1 is empty on row 5, which alone never visits it: its gamma
    # must be +0.0 in the block too.
    m = np.array([[5, 4, 4, 3, 2, 1],
                  [4, 4, 3, 2, 1, 0]])
    keys = rng.substream_keys(8, 0, m.shape[1])
    first = simulate._SLOT_EXP + simulate._EXP_TERMS * 2
    uniform_column = rng.uniform_column
    drawn = []

    def counting_column(keys, j):
        u = uniform_column(keys, j)
        j = np.broadcast_to(j, u.shape)
        drawn.append(np.count_nonzero((first <= j) & (j < first + 4)))
        return u

    monkeypatch.setattr(rng, "uniform_column", counting_column)
    g = simulate._class_gammas(keys, m)
    assert sum(drawn) == 4 * np.count_nonzero(m[0] > simulate._EXP_TERMS)
    for i in range(m.shape[1]):  # one lane at a time gives the same bytes
        lane = simulate._class_gammas(keys[i:i + 1], m[:, i:i + 1])
        assert lane.tobytes() == g[:, i:i + 1].tobytes()


def test_batch_invariance_across_row_blocks(monkeypatch):
    # counts that span several row blocks and do not fill the last one;
    # lam*t = 20 mixes exponential-sum and rejection-sampled classes
    params = ModelParams(c=1.0, lam=20.0, dim=3)
    full = simulate_ensemble(params, 1.0, 3 * simulate._BLOCK_ROWS + 123, 5)
    part = simulate_ensemble(params, 1.0, simulate._BLOCK_ROWS + 77, 5)
    k = len(part)
    for name in ("u", "n_events", "positions", "initial_direction"):
        assert np.array_equal(getattr(full, name)[:k], getattr(part, name))
    monkeypatch.setattr(simulate, "_BLOCK_ROWS", 1000)
    reblocked = simulate_ensemble(params, 1.0, len(full), 5)
    assert np.array_equal(reblocked.positions, full.positions)
    assert np.array_equal(reblocked.u, full.u)


def test_no_block_thread_outlives_the_call(monkeypatch):
    monkeypatch.setattr(simulate, "_WORKERS", 2)
    monkeypatch.setattr(simulate, "_BLOCK_ROWS", 1000)
    # Conditioned n = 12 in dim 2 (m_0 = 4) takes Marsaglia-Tsang
    # attempts, so its blocks start a helper.
    simulate_ensemble(P2, 1.0, 3500, 11, conditioning=12)
    assert [t.name for t in threading.enumerate()
            if t.name.startswith("simulate-block")] == []


def test_batching_invariance():
    full = simulate_ensemble(P3, 1.0, 2000, 77)
    half = simulate_ensemble(P3, 1.0, 1000, 77)
    assert np.array_equal(full.u[:1000], half.u)
    assert np.array_equal(full.positions[:1000], half.positions)


def test_event_count_poisson_moments():
    s = simulate_ensemble(P2, 2.0, 200_000, 13)
    lt = 2.0
    se = math.sqrt(lt / s.n_events.size)
    assert abs(s.n_events.mean() - lt) < 4 * se
    rep = stats.chi_square_masses(
        {str(k): int(np.sum(s.n_events == k)) for k in range(9)}
        | {"9+": int(np.sum(s.n_events >= 9))},
        {str(k): laws.poisson_pmf(k, lt) for k in range(9)}
        | {"9+": 1.0 - sum(laws.poisson_pmf(k, lt) for k in range(9))},
        name="poisson_counts")
    assert rep.passed, rep.line()


def test_initial_direction_uniform():
    s = simulate_ensemble(P3, 1.0, 120_000, 17)
    rep = stats.chi_square_masses(
        {str(j): int(np.sum(s.initial_direction == j)) for j in range(1, 7)},
        {str(j): 1.0 / 6.0 for j in range(1, 7)},
        name="initial_direction_uniform")
    assert rep.passed, rep.line()


def test_switch_times_are_order_statistics():
    # conditioned switch times: sorted uniforms; the first of n=2 has
    # CDF 1 - (1-v)^2
    count = 20_000
    firsts = np.empty(count)
    for i in range(count):
        firsts[i] = sample_path_conditional(
            P2, 1.0, 2, Substream(29, i)).switch_times[0]
    rep = stats.ks_one_sample(
        np.sort(firsts), lambda v: 1.0 - (1.0 - np.clip(v, 0, 1)) ** 2,
        name="first_order_statistic")
    assert rep.passed, rep.line()


# --- empirical conditional laws of the simulated process -----------------
# These pin the true sampling distributions (quadratic/cubic CDFs) so any
# change to the path dynamics is caught immediately.

def test_true_law_u2_given_two_switches():
    s = simulate_ensemble(P2, 1.0, 100_000, 41, conditioning=2)
    rep = stats.ks_one_sample(np.sort(s.u),
                              lambda v: np.clip(v, 0.0, 1.0) ** 2,
                              name="u2_given_n2_quadratic")
    assert rep.passed, rep.line()


def test_true_law_u2_given_three_switches():
    s = simulate_ensemble(P2, 1.0, 100_000, 43, conditioning=3)

    def cdf(v):
        w = np.clip(v, 0.0, 1.0)
        return 3 * w ** 2 - 2 * w ** 3

    rep = stats.ks_one_sample(np.sort(s.u), cdf, name="u2_given_n3_cubic")
    assert rep.passed, rep.line()


def test_true_law_u3_given_three_switches():
    s = simulate_ensemble(P3, 1.0, 100_000, 47, conditioning=3)
    rep = stats.ks_one_sample(np.sort(s.u),
                              lambda v: np.clip(v, 0.0, 1.0) ** 3,
                              name="u3_given_n3_cubic")
    assert rep.passed, rep.line()


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_telegraph_conditional_laws_fit(n):
    # in dimension 1 the closed-form conditional laws do describe the
    # simulated radius
    params = ModelParams(c=1.0, lam=1.0, dim=1)
    s = simulate_ensemble(params, 1.0, 100_000, 500 + n, conditioning=n)
    law = laws.ConditionalLaw(params, n, 1.0)
    rep = stats.ks_one_sample(np.sort(s.u), law.cdf,
                              name=f"telegraph_conditional_n{n}")
    assert rep.passed, rep.line()


def test_unconditional_mean_regression():
    # pinned simulated mean of U in the plane at lam=c=t=1; the closed
    # formula gives 0.869430 for comparison (documented divergence)
    s = simulate_ensemble(P2, 1.0, 200_000, 53)
    assert s.u.mean() == pytest.approx(0.8986, abs=0.004)


def test_char_function_basics():
    # the empirical CF E e^{i<omega, X>} of the sampled positions
    def ecf(s, omega):
        return complex(np.mean(np.exp(1j * (s.positions @ omega))))

    s = simulate_ensemble(P2, 1.0, 50_000, 61)
    assert ecf(s, (0.0, 0.0)) == pytest.approx(1.0)
    s0 = simulate_ensemble(P2, 1.0, 200_000, 67, conditioning=0)
    val = ecf(s0, (1.0, 0.0))
    want = 0.5 * (1.0 + math.cos(1.0))
    assert val.real == pytest.approx(want, abs=0.01)
    assert val.imag == pytest.approx(0.0, abs=0.01)


def test_stratum_counts_and_outcome_roundtrip():
    s = simulate_ensemble(P3, 0.5, 5000, 71)
    counts = s.stratum_counts()
    assert sum(counts.values()) == 5000
    assert all(type(k) is int for k in counts.values())
    assert list(s.strata) == [classify_stratum(int(n), 3)
                              for n in s.n_events]
    assert set(counts) <= {"vertex", "face1", "face2", "interior"}
    assert s.u[17] == pytest.approx(abs(s.positions[17]).sum())
    assert s.strata[17] == classify_stratum(int(s.n_events[17]), 3)


@pytest.mark.parametrize("horizon", [float("nan"), float("inf"), 0.0, -1.0])
def test_non_finite_or_non_positive_horizon_rejected(horizon):
    with pytest.raises(ValueError, match="finite and > 0"):
        simulate_ensemble(P2, horizon, 10, 1)
    with pytest.raises(ValueError, match="finite and > 0"):
        sample_path(P2, horizon, Substream(1, 0))
    with pytest.raises(ValueError, match="finite and > 0"):
        sample_path_conditional(P2, horizon, 2, Substream(1, 0))


def test_lambda_t_beyond_supported_range_rejected():
    params = ModelParams(c=1.0, lam=1e300, dim=2)
    with pytest.raises(ValueError, match="supported"):
        simulate_ensemble(params, 1e300, 10, 1)
    # a fixed switch count needs no Poisson table
    s = simulate_ensemble(params, 1.0, 10, 1, conditioning=10 ** 12)
    assert np.all(s.u <= 1.0)


def test_dim_validation():
    with pytest.raises(ValueError):
        ModelParams(c=1.0, lam=1.0, dim=9)
    with pytest.raises(ValueError):
        ModelParams(c=0.0, lam=1.0, dim=2)
    with pytest.raises(ValueError):
        ModelParams(c=1.0, lam=-1.0, dim=2)
    with pytest.raises(ValueError):
        ModelParams(c=1.0, lam=1.0, dim=True)
    with pytest.raises(ValueError):
        simulate_ensemble(P2, -1.0, 10, 1)
    with pytest.raises(ValueError):
        simulate_ensemble(P2, 1.0, 0, 1)
    with pytest.raises(ValueError):
        simulate_ensemble(P2, 1.0, 10, 1, conditioning=-1)


def test_high_dimension_simulation_runs():
    params = ModelParams(c=1.0, lam=2.0, dim=8)
    s = simulate_ensemble(params, 1.0, 2000, 83)
    assert s.positions.shape == (2000, 8)
    assert float(np.max(s.u)) <= 1.0 + 1e-12
    assert np.all((1 <= s.initial_direction) & (s.initial_direction <= 16))


def test_radius_and_final_direction_are_derived_on_first_read():
    params = ModelParams(c=0.75, lam=8.0, dim=8)
    s = simulate_ensemble(params, 1.0, 2000, 84)
    positions = s.positions
    assert "u" not in vars(s) and "final_direction" not in vars(s)
    # in dim 8 numpy sums each contiguous row pairwise
    want = np.abs(np.ascontiguousarray(positions)).sum(axis=1)
    shell = s.n_events < params.dim
    assert shell.any() and not shell.all()
    assert np.array_equal(s.u[~shell], want[~shell])
    assert np.all(s.u[shell] == params.c * 1.0)


@pytest.mark.parametrize("n", [2.7, 3.0, True, np.True_, "3", np.float64(3)])
def test_non_integer_conditioning_rejected(n):
    with pytest.raises(ValueError, match="integer"):
        simulate_ensemble(P2, 1.0, 10, 1, conditioning=n)


@pytest.mark.parametrize("name,value", [
    ("count", 1e3), ("count", True), ("count", np.float64(10)),
    ("seed", 1.5), ("seed", True), ("seed", 7.0)],
    ids=["count-1e3", "count-True", "count-numpy-float", "seed-1.5",
         "seed-True", "seed-7.0"])
def test_count_and_seed_must_be_integers(name, value):
    # a float count or seed once raised TypeError from numpy, and
    # count=True or seed=True ran as 1
    args = {"count": 10, "seed": 7, name: value}
    with pytest.raises(ValueError, match=f"{name} must be an integer"):
        simulate_ensemble(P2, 1.0, **args)


def test_numpy_integer_count_and_seed_accepted():
    s = simulate_ensemble(P3, 1.0, np.int32(500), np.int64(7))
    ref = simulate_ensemble(P3, 1.0, 500, 7)
    assert s.seed == 7 and type(s.seed) is int
    assert np.array_equal(s.positions, ref.positions)


@pytest.mark.parametrize("n", [np.int64(6), np.int32(6), np.uint8(6)])
def test_numpy_integer_conditioning_accepted(n):
    s = simulate_ensemble(P3, 1.0, 500, 7, conditioning=n)
    ref = simulate_ensemble(P3, 1.0, 500, 7, conditioning=6)
    assert type(s.conditioning) is int and s.conditioning == 6
    assert np.array_equal(s.positions, ref.positions)
    assert np.array_equal(s.u, ref.u)


def _poisson_table_full_range(mu):
    """The table as built before its ends were bisected: pdtr over
    mu +- (10 sqrt(mu) + 60), trimmed at the two 2**-60 tails."""
    half = 10.0 * math.sqrt(mu) + 60.0
    k = np.arange(max(0, int(mu - half)), int(mu + half) + 1)
    cdf = special.pdtr(k, mu)
    first = int(np.searchsorted(cdf, 2.0 ** -60))
    above = int(np.searchsorted(k, math.floor(mu)))
    last = above + int(np.argmax(special.pdtrc(k[above:], mu) < 2.0 ** -60))
    cdf = cdf[first:last + 1]
    cdf[-1] = 1.0
    return int(k[first]), cdf


@pytest.mark.parametrize("mu", [1e-300, 1e-30, 1e-8, 1e-3, 0.1, 0.5, 1.0,
                                2.5, 7.0, 16.0, 64.5, 100.0, 1024.0, 12345.6,
                                1e5, 1e6, 3.3e7, 1e8])
def test_poisson_table_bisection_is_byte_identical(mu):
    lo, cdf = simulate._poisson_table(mu)
    ref_lo, ref_cdf = _poisson_table_full_range(mu)
    assert lo == ref_lo
    assert cdf.tobytes() == ref_cdf.tobytes()


@pytest.mark.parametrize("mu", [1e-30, 0.5, 8.0, 1024.0, 1e6, 1e8])
def test_guide_table_inverts_like_searchsorted(mu):
    lo, cdf = simulate._poisson_table(mu)
    guide = simulate._guide_table(cdf)
    k = guide.size - 2
    assert k & (k - 1) == 0 and 16 <= k <= simulate._GUIDE_MAX
    inner = cdf[cdf < 1.0]
    # uniforms, bucket edges, the table's own values and their neighbours
    u = np.concatenate([rng.uniform_column(rng.substream_keys(3, 0, 4096), 1),
                        np.arange(1, k) / k, inner,
                        np.nextafter(inner, 0.0), np.nextafter(inner, 1.0)])
    u = u[(u > 0.0) & (u < 1.0)]
    assert np.array_equal(simulate._invert(cdf, guide, u),
                          np.searchsorted(cdf, u))


@pytest.mark.parametrize("mu", [2.0, 1024.0])
def test_invert_at_the_top_uniform_matches_searchsorted(mu):
    # the top uniform is 1.0: bucket K, past the buckets of (0, 1)
    lo, cdf = simulate._poisson_table(mu)
    u = np.array([0.5, TOP_UNIFORM])
    assert np.array_equal(simulate._invert(cdf, simulate._guide_table(cdf), u),
                          np.searchsorted(cdf, u))


@pytest.mark.parametrize("lam_t", [2.0, 1024.0])
def test_largest_uniform_draws_the_last_count(monkeypatch, lam_t):
    params = ModelParams(c=1.0, lam=lam_t, dim=2)
    monkeypatch.setattr(rng, "uniform_column",
                        _top_slot_column(simulate._SLOT_POISSON))
    s = simulate_ensemble(params, 1.0, 16, 5)
    lo, cdf = simulate._poisson_table(lam_t)
    assert np.all(s.n_events == lo + np.searchsorted(cdf, 1.0))
    assert np.all(np.isfinite(s.positions)) and np.all(s.u <= 1.0)
