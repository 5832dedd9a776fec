"""The block threads of `simulate_ensemble` change no byte of its output.

The pinned digests of `test_sampler_digest` are rerun with 1, 2 and 3
threads, from two calling threads at once, after a block fails and in
a forked child.
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


@pytest.mark.parametrize("failing", [0, 1, 4])
def test_block_error_propagates_and_the_next_call_works(monkeypatch,
                                                         failing):
    # 5 blocks of 4000 rows on 2 threads: block 0 runs on the caller,
    # block 1 on the pool thread, block 4 last on the caller.
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
    # The parent's pool exists and has an idle thread when the child forks.
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
