"""Byte pins of `simulate_ensemble` output under sampler `classsum-2`.

Each case hashes the raw bytes of `u`, `n_events`, `positions`,
`initial_direction` and `final_direction`, so any change of the kernel
that moves one bit (a signed zero included: the CSV writes ``-0.0``)
fails here.  The cases cover dims 1 to 5, 7 and 8, lam*t 1, 16, 40 and
1024 (at 16 one block mixes classes with m <= 3 and m > 3; at 4 in
dim 1, rows with m = 0 sit next to rows with m > 3) and conditioning
n = 0, 4, 5, 6, 14, 20 and 40 (at 14 and 20 the classes straddle 3:
some take the rejection method, the rest a sum of exponentials; at
14 in dim 2 the pair of classes 2 and 3 has only class 2 above 3); the
two cases of 20,000 rows span more than one row block and end in a
partial one, and one is rerun with a small block size, since block
size and layout must not change a byte.  Dims 4 to 7 pin the L1 radius
where its sum has fewer than 8 terms (numpy sums 8 or more terms
pairwise, in a different order).  The cases whose classes all have at
most 3 segments are sums of exponentials in `classsum-1` and
`classsum-2` alike, so their digests did not change with the id.

The digests hold for one numpy build: its SIMD log, cos and sqrt could
differ in the last bit on another CPU.  A new `SAMPLER_ID` is the only
reason to change them.
"""

import hashlib

import numpy as np
import pytest

from cyclic_motion import simulate
from cyclic_motion.model import ModelParams

FIELDS = ("u", "n_events", "positions", "initial_direction",
          "final_direction")

# (dim, lam, horizon, count, seed, conditioning) -> sha256
CASES = {
    (1, 1.0, 1.0, 3000, 11, None):
        "e0e986706dc472ef5fad9324dfc50a87898f610391e01a9a029fe26c6da7a9b3",
    (2, 16.0, 1.0, 20_000, 12, None):
        "f10cef885f3c050d8a4efd09b4d4b4f30846e473d7e0dfe778eef5f42198be8f",
    (3, 1.0, 1.0, 3000, 13, 6):
        "943b00af818d66aaffefeb6d8ac131004521cc0ae17dcf015e272c3d77ad91e0",
    (3, 512.0, 2.0, 3000, 14, None):
        "4974252e14c172ad389bb54657ced30455f72a9a3c11fb3f1a234b1b9e79bf60",
    (8, 16.0, 1.0, 3000, 15, None):
        "eaf790bd830d06b66707b309524696e012fe2b95c611f57cd32aa27eb285d5de",
    (8, 1024.0, 1.0, 3000, 16, None):
        "5afd03801a1d89525da73c54f2763fcc04295442c51933f33bebbbfddad24362",
    (2, 1.0, 1.0, 3000, 17, 0):
        "130b701ebe7654b5ef4dec92b94a815420bff008426b196584b6c387d1741ab3",
    (2, 1.0, 1.0, 3000, 18, 40):
        "3d4df6b71d33a1575239a10d7a6ece63ec27f89e0d313939474cd431b6740630",
    (8, 1.0, 1.0, 3000, 19, 40):
        "953a52b852355278e9c88f09504c466b08899dd34f276d5218f5ace491902c52",
    # lam*t = 4 in dim 1: rows with m = 0 share blocks with rows m > 3
    (1, 4.0, 1.0, 3000, 20, None):
        "a799a5fe3426327034e3945e3d26224a6887892af2b712d668545c0f641598fa",
    # the shapes of the conjecture rows: every class of size 0 or 1
    (4, 1.0, 1.0, 3000, 21, 4):
        "319dfcd74071a609d4f7be3446a70e64f308f4de1ce66868699623790b73407b",
    (5, 1.0, 1.0, 3000, 22, 5):
        "dac820d858ce58376dec692c3147cd231f5bee9fc099e1ee0f62e60b138cde28",
    # two blocks, classes of size 1 to 5
    (7, 40.0, 1.0, 20_000, 23, None):
        "36f94760c6829a912e427721333f6c75b77f418c94cc910159940bad7e102707",
    # conditioned classes on both sides of 3: m = 4,4,4,3 and 4,4,4,3,3,3
    (2, 1.0, 1.0, 3000, 24, 14):
        "5e22ccf75a9cdbb9dcef5e8b9d3bb06079d8bc81a887e90bd7821aba3c8f7893",
    (3, 1.0, 1.0, 3000, 25, 20):
        "07222e1a105935c8d76b39e9040119a1dcdaa2b47f1e9397eeac8b1b878ee104",
    # in 1000-row blocks the first holds n up to 4 only, so its empty
    # class-2 lanes are drawn over and its class 5 is never visited
    (3, 1.0, 1.0, 3000, 36, None):
        "112280c32a29d89e8c88ee8e7264ffedfcef9530f2c58ab9da781d1ff5f3881c",
}


def digest(s: simulate.SampleSet) -> str:
    h = hashlib.sha256()
    for name in FIELDS:
        h.update(np.ascontiguousarray(getattr(s, name)).tobytes())
    return h.hexdigest()


def _run(case):
    dim, lam, horizon, count, seed, n = case
    return simulate.simulate_ensemble(ModelParams(c=0.75, lam=lam, dim=dim),
                                      horizon, count, seed, conditioning=n)


def test_sampler_id_is_pinned():
    assert simulate.SAMPLER_ID == "classsum-2"


@pytest.mark.parametrize("case", list(CASES), ids=str)
def test_ensemble_bytes_are_pinned(case):
    assert digest(_run(case)) == CASES[case]


def test_large_case_spans_blocks():
    case = (2, 16.0, 1.0, 20_000, 12, None)
    assert simulate._BLOCK_ROWS < case[3] < 2 * simulate._BLOCK_ROWS


@pytest.mark.parametrize("rows", [1000, 4096])
def test_block_size_changes_no_byte(monkeypatch, rows):
    case = (2, 16.0, 1.0, 20_000, 12, None)
    monkeypatch.setattr(simulate, "_BLOCK_ROWS", rows)
    assert digest(_run(case)) == CASES[case]
