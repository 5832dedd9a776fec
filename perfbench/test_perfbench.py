"""Self-test of the benchmark: tracer arithmetic and a small run of every
workload.  Run from the root of a checkout:

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import time
import types

import numpy as np
import pytest

import run
import tracer as tr
import workloads as wl


def _synthetic():
    """cli [0,10] > simulate [1,8] > rng [2,3] and rng [4,6]; laws [8.5,9.5]."""
    t = tr.Tracer()
    root = t.record("cli.cmd_simulate", 0.0, 10.0)
    sim = t.record("simulate.simulate_ensemble", 1.0, 8.0, root)
    t.record("rng.uniform_column", 2.0, 3.0, sim)
    t.record("rng.uniform_column", 4.0, 6.0, sim)
    t.record("laws.scaled_series", 8.5, 9.5, root)
    return t


def test_self_time_is_duration_minus_children():
    _, parent, start, end = _synthetic().arrays()
    np.testing.assert_allclose(tr.self_times(parent, start, end),
                               [2.0, 4.0, 1.0, 2.0, 1.0])


def test_layer_metrics_group_self_time_by_layer():
    m = tr.layer_metrics(_synthetic())
    assert m["cli.self_s"] == pytest.approx(2.0)
    assert m["simulate.self_s"] == pytest.approx(4.0)
    assert m["rng.self_s"] == pytest.approx(3.0)
    assert m["bessel.self_s"] == pytest.approx(1.0)   # Bessel kernel in laws
    assert m["laws.self_s"] == 0.0
    assert m["rng.columns"] == 2
    assert sum(m[f"{layer}.self_s"] for layer in tr.LAYERS) == pytest.approx(10)


def test_has_ancestor_follows_the_whole_chain():
    parent = np.array([-1, 0, 1, 2, -1])
    flagged = np.array([False, True, False, False, False])
    assert tr.has_ancestor(parent, flagged).tolist() == [
        False, False, True, True, False]


def test_wrap_records_nesting_counts_and_restores():
    mod = types.SimpleNamespace()
    mod.inner = lambda n: n * 2
    mod.outer = lambda n: mod.inner(n) + 1
    originals = (mod.inner, mod.outer)
    t = tr.Tracer()
    t.wrap(mod, "inner", "rng.inner", count=lambda a, k: a[0])
    t.wrap(mod, "outer", "simulate.outer")
    assert mod.outer(5) == 11
    name_id, parent, start, end = t.arrays()
    assert [t.names[i] for i in name_id] == ["simulate.outer", "rng.inner"]
    assert parent.tolist() == [-1, 0]
    assert start[0] <= start[1] <= end[1] <= end[0]
    assert t.counts["rng.inner"] == 5
    t.uninstall()
    assert (mod.inner, mod.outer) == originals


def test_repeat_for_runs_once_and_stops_within_the_time():
    calls = []
    run.repeat_for(0.0, lambda: calls.append(1))
    assert calls == [1]
    calls.clear()
    run.repeat_for(1.0, lambda: calls.append(time.sleep(0.3)))
    assert 1 <= len(calls) <= 3


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_small_pass_of_every_workload(workload, tmp_path):
    pkg = run.load_package()
    r = run.Run(pkg, workload, 11, str(tmp_path))
    spans = tr.Tracer()
    tr.install_layer_spans(spans, pkg)
    try:
        result = r.run_pass(small=True)
    finally:
        spans.uninstall()
    assert r.problems == []
    assert r.failed == 0 and r.attempted == len(result["cmds"]) > 0
    m = tr.layer_metrics(spans)
    assert m["cli.self_s"] > 0
    if workload in ("heat", "export"):
        assert m["simulate.paths"] > 0 and m["rng.values"] > 0
    if workload == "tables":
        assert m["laws.density_calls"] > 0 and m["simulate.calls"] == 0
    if workload == "checks":
        assert m["stats.calls"] > 0 and m["pde.density_evals"] > 0
