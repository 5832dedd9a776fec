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
    `rng`), inverts the Poisson count with scipy's ppf and evaluates the
    Marsaglia-Tsang gamma rejection in plain floats.  Returns
    ``(n_events, initial_index, position)``.
    """
    def uniform(slot):
        return rng.uniform_value(stream.key, slot)

    two_d = params.n_directions
    j0 = 1 + int(uniform(0) * two_d)
    if n is None:
        n = int(poisson.ppf(uniform(1), params.lam * t))
    gammas = []
    for q in range(two_d):
        m = (n + 1) // two_d + (q < (n + 1) % two_d)
        if m <= 3:
            gammas.append(sum(-math.log(uniform(2 + 3 * q + k))
                              for k in range(m)))
            continue
        shape = m - 1.0 / 3.0
        spread = 1.0 / math.sqrt(9.0 * shape)
        slot = 2 + 3 * two_d + 3 * q
        while True:
            x = (math.sqrt(-2.0 * math.log(uniform(slot)))
                 * math.cos(2.0 * math.pi * uniform(slot + 1)))
            v = (1.0 + spread * x) ** 3
            if v > 0 and (math.log(uniform(slot + 2))
                          < 0.5 * x * x + shape * (1.0 - v + math.log(v))):
                gammas.append(shape * v)
                break
            slot += 3 * two_d
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
    simulate_ensemble(P2, 1.0, 3500, 11)
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


@pytest.mark.parametrize("n", [2.7, 3.0, True, np.True_, "3", np.float64(3)])
def test_non_integer_conditioning_rejected(n):
    with pytest.raises(ValueError, match="integer"):
        simulate_ensemble(P2, 1.0, 10, 1, conditioning=n)


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
    k = guide.size - 1
    assert k & (k - 1) == 0 and 16 <= k <= simulate._GUIDE_MAX
    inner = cdf[cdf < 1.0]
    # uniforms, bucket edges, the table's own values and their neighbours
    u = np.concatenate([rng.uniform_column(rng.substream_keys(3, 0, 4096), 1),
                        np.arange(1, k) / k, inner,
                        np.nextafter(inner, 0.0), np.nextafter(inner, 1.0)])
    u = u[(u > 0.0) & (u < 1.0)]
    assert np.array_equal(simulate._invert(cdf, guide, u),
                          np.searchsorted(cdf, u))
