"""No verify criterion holds an ensemble while it draws the next one, and
every draw it makes runs inside `simulate.simulate_ensemble`.

Each ensemble of a check is reduced to the arrays the check reads before
the next is drawn, so a check's peak memory holds one ensemble, not two.
perfbench's small pass caps `simulate.simulate_ensemble` and counts its
paths; a draw outside it would run at full size and go uncounted.
"""

import weakref

import pytest

from cyclic_motion import rng, simulate, verify

CRITERIA = [fn for _, fn in verify._REGISTRY]


@pytest.fixture
def small_ensembles(monkeypatch):
    monkeypatch.setattr(verify, "_COUNT", 2000)
    monkeypatch.setattr(verify, "_HEAT_COUNT", 2000)


@pytest.mark.usefixtures("small_ensembles")
@pytest.mark.parametrize("fn", CRITERIA, ids=lambda fn: fn.__name__)
def test_no_ensemble_outlives_the_next_draw(monkeypatch, fn):
    draw = simulate.simulate_ensemble
    returned = []

    def guarded_draw(*args, **kwargs):
        live = sum(ref() is not None for ref in returned)
        assert live == 0, (f"{fn.__name__}: {live} earlier ensemble(s) "
                           f"alive at draw {len(returned) + 1}")
        samples = draw(*args, **kwargs)
        returned.append(weakref.ref(samples))
        return samples

    monkeypatch.setattr(simulate, "simulate_ensemble", guarded_draw)
    assert fn(11)


@pytest.mark.usefixtures("small_ensembles")
@pytest.mark.parametrize("fn", CRITERIA, ids=lambda fn: fn.__name__)
def test_every_draw_runs_inside_simulate_ensemble(monkeypatch, fn):
    # A depth counter, not a thread-local: the block threads draw too.
    draw, substream_keys = simulate.simulate_ensemble, rng.substream_keys
    depth = draws = 0
    inside, outside = [], []

    def counted_draw(*args, **kwargs):
        nonlocal depth, draws
        depth += 1
        draws += 1
        try:
            return draw(*args, **kwargs)
        finally:
            depth -= 1

    def checked_keys(*args):
        (inside if depth else outside).append(args)
        return substream_keys(*args)

    monkeypatch.setattr(simulate, "simulate_ensemble", counted_draw)
    monkeypatch.setattr(rng, "substream_keys", checked_keys)
    assert fn(11)
    assert not outside, f"{fn.__name__}: draws outside simulate_ensemble"
    assert bool(inside) == bool(draws)  # the wrapper sees the sampler draw
