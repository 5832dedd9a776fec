"""The block threads of `simulate_ensemble` change no byte of its output,
and start only for ensembles that take Marsaglia-Tsang attempts.

The pinned digests of `test_sampler_digest` are rerun with 1, 2 and 3
threads, from two calling threads at once, with a slow calling thread,
after a block fails and in a forked child.  Helper threads start only
where the typical path's largest class has more than 3 segments, so 6
of the 16 pinned cases reach them: lam*t 16 in dim 2, lam*t 1024 in
dims 3 and 8, and conditioning n = 14 and 40 in dim 2 and n = 20 in
dim 3.  The other 10 run every block on the calling thread whatever the
thread count.
"""

import os
import signal
import sys
import threading
import time

import numpy as np
import pytest

from cyclic_motion import rng, simulate
from test_sampler_digest import CASES, _run, digest

LARGE = (2, 16.0, 1.0, 20_000, 12, None)
# The pinned cases whose typical path has a class above 3 segments.
HELPED = {(2, 16.0, 1.0, 20_000, 12, None), (3, 512.0, 2.0, 3000, 14, None),
          (8, 1024.0, 1.0, 3000, 16, None), (2, 1.0, 1.0, 3000, 18, 40),
          (2, 1.0, 1.0, 3000, 24, 14), (3, 1.0, 1.0, 3000, 25, 20)}
# Every class of the typical path has at most 3 segments: conditioned
# n = 11 in dim 2 (m = 3,3,3,3) and lam*t = 1 in dim 3.
EXP_SUMS = [(2, 1.0, 1.0, 20_000, 30, 11), (3, 1.0, 1.0, 20_000, 31, None)]
# Conditioned n = 12 in dim 2 (m_0 = 4), and the shapes of heat's
# ensembles, lam = c^2 at c = 8, 16 and 32 in dims 2 and 3.
TSANG = [(2, 1.0, 1.0, 10_000, 32, 12)] + [
    (dim, c * c, 1.0, 10_000, 33, None)
    for dim in (2, 3) for c in (8.0, 16.0, 32.0)]


def _threads_of_blocks(monkeypatch, case, delay):
    """Runs ``case`` in 1000-row blocks with 2 threads allowed, every block
    of the calling thread ``delay`` seconds slower.  Returns the digest, the
    blocks run on each thread and whether a helper thread was alive during
    a block."""
    monkeypatch.setattr(simulate, "_WORKERS", 2)
    monkeypatch.setattr(simulate, "_BLOCK_ROWS", 1000)
    class_gammas = simulate._class_gammas
    caller = threading.current_thread()
    ran = {"caller": 0, "helper": 0}
    helper_alive = False

    def recorded(keys, m):
        nonlocal helper_alive
        helper_alive |= any(t.name.startswith("simulate-block")
                            for t in threading.enumerate())
        if threading.current_thread() is caller:
            ran["caller"] += 1
            time.sleep(delay)
        else:
            ran["helper"] += 1
        return class_gammas(keys, m)

    monkeypatch.setattr(simulate, "_class_gammas", recorded)
    return digest(_run(case)), ran, helper_alive


@pytest.mark.parametrize("rows", [1000, simulate._BLOCK_ROWS])
@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("case", list(CASES), ids=str)
def test_worker_count_changes_no_byte(monkeypatch, workers, case, rows):
    # at 1000-row blocks every case spans at least three blocks
    monkeypatch.setattr(simulate, "_WORKERS", workers)
    monkeypatch.setattr(simulate, "_BLOCK_ROWS", rows)
    assert digest(_run(case)) == CASES[case]


def test_concurrent_callers_get_the_pinned_bytes(monkeypatch):
    # More threads than cores, and frequent switches between them.
    monkeypatch.setattr(simulate, "_WORKERS", 3)
    monkeypatch.setattr(simulate, "_BLOCK_ROWS", 1000)
    cases = [LARGE, (3, 512.0, 2.0, 3000, 14, None)]
    barrier = threading.Barrier(len(cases))
    got = {}

    def call(case):
        barrier.wait()
        got[case] = [digest(_run(case)) for _ in range(3)]

    threads = [threading.Thread(target=call, args=(c,)) for c in cases]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert got == {c: [CASES[c]] * 3 for c in cases}


def test_a_slow_caller_leaves_its_blocks_to_the_helper(monkeypatch):
    # 20 blocks of 1000 rows on 2 threads, and every block of the calling
    # thread 30 ms slower: the blocks go to whichever thread is free.
    monkeypatch.setattr(simulate, "_WORKERS", 2)
    monkeypatch.setattr(simulate, "_BLOCK_ROWS", 1000)
    class_gammas = simulate._class_gammas
    caller = threading.current_thread()
    ran = {"caller": 0, "helper": 0}

    def slow_on_the_caller(keys, m):
        if threading.current_thread() is caller:
            ran["caller"] += 1
            time.sleep(0.03)
        else:
            ran["helper"] += 1
        return class_gammas(keys, m)

    monkeypatch.setattr(simulate, "_class_gammas", slow_on_the_caller)
    assert digest(_run(LARGE)) == CASES[LARGE]
    assert ran["caller"] + ran["helper"] == 20
    assert ran["helper"] > 10


@pytest.mark.parametrize("case", EXP_SUMS, ids=str)
def test_exponential_sums_stay_on_the_calling_thread(monkeypatch, case):
    # A slow caller would leave blocks to a helper, if one had started.
    _, ran, helper_alive = _threads_of_blocks(monkeypatch, case, 0.03)
    assert ran == {"caller": 20, "helper": 0}
    assert not helper_alive


@pytest.mark.parametrize("case", TSANG, ids=str)
def test_tsang_ensembles_hand_blocks_to_the_helper(monkeypatch, case):
    monkeypatch.setattr(simulate, "_WORKERS", 1)
    one_thread = digest(_run(case))
    got, ran, helper_alive = _threads_of_blocks(monkeypatch, case, 0.03)
    assert got == one_thread
    assert ran["caller"] + ran["helper"] == 10
    assert ran["helper"] > 5 and helper_alive
    assert [t.name for t in threading.enumerate()
            if t.name.startswith("simulate-block")] == []


@pytest.mark.parametrize("case", list(CASES), ids=str)
def test_only_tsang_cases_start_helpers(monkeypatch, case):
    _, _, helper_alive = _threads_of_blocks(monkeypatch, case, 0.0)
    assert helper_alive == (case in HELPED)


@pytest.mark.parametrize("failing", [0, 1, 4])
def test_block_error_propagates_and_the_next_call_works(monkeypatch,
                                                         failing):
    # 5 blocks of 4000 rows on 2 threads: block 0 runs on the caller,
    # block 1 on the helper thread, block 4 last on the caller.
    monkeypatch.setattr(simulate, "_WORKERS", 2)
    monkeypatch.setattr(simulate, "_BLOCK_ROWS", 4000)
    bad_key = rng.substream_key(LARGE[4], failing * 4000)
    class_gammas = simulate._class_gammas

    def fail_on_one_block(keys, m):
        if keys[0] == np.uint64(bad_key):
            raise RuntimeError("block failed")
        return class_gammas(keys, m)

    monkeypatch.setattr(simulate, "_class_gammas", fail_on_one_block)
    with pytest.raises(RuntimeError, match="block failed"):
        _run(LARGE)
    monkeypatch.setattr(simulate, "_class_gammas", class_gammas)
    assert digest(_run(LARGE)) == CASES[LARGE]


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_child_gets_the_pinned_bytes(monkeypatch):
    # The parent has run its blocks on two threads before the child forks.
    monkeypatch.setattr(simulate, "_WORKERS", 2)
    assert digest(_run(LARGE)) == CASES[LARGE]
    pid = os.fork()
    if pid == 0:  # the child never returns into pytest
        code = 1
        try:
            code = 0 if digest(_run(LARGE)) == CASES[LARGE] else 1
        finally:
            os._exit(code)
    deadline = time.monotonic() + 60
    while (done := os.waitpid(pid, os.WNOHANG))[0] == 0:
        if time.monotonic() > deadline:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pytest.fail("the forked child hung")
        time.sleep(0.01)
    assert os.waitstatus_to_exitcode(done[1]) == 0
