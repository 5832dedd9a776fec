"""No verify criterion holds an ensemble while it draws the next one.

Each ensemble of a check is reduced to the arrays the check reads before
the next is drawn, so a check's peak memory holds one ensemble, not two.
"""

import weakref

import pytest

from cyclic_motion import simulate, verify


@pytest.mark.parametrize("fn", [fn for _, fn in verify._REGISTRY],
                         ids=lambda fn: fn.__name__)
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
    monkeypatch.setattr(verify, "_COUNT", 2000)
    monkeypatch.setattr(verify, "_HEAT_COUNT", 2000)
    assert fn(11)
