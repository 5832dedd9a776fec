"""The verify suites against the benchmark's frozen row list.

`perfbench/workloads.py` fails every benchmark `verify` operation whose
report rows differ from its `EXPECTED_ROWS`, so a verify row added,
renamed or dropped here must show up in tier-1 first.  The file is read
and executed as a private module: nothing is imported from or
written to the benchmark directory.
"""

import sys
import types
from pathlib import Path

from cyclic_motion import verify

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _expected_rows() -> dict:
    # dataclasses look their module up in sys.modules while the file runs
    module = types.ModuleType("perfbench_workloads")
    sys.modules[module.__name__] = module
    try:
        exec(compile(WORKLOADS.read_text(), str(WORKLOADS), "exec"),
             module.__dict__)
    finally:
        del sys.modules[module.__name__]
    return module.EXPECTED_ROWS


def test_verify_rows_are_the_benchmark_rows():
    expected = _expected_rows()
    assert set(expected) == set(verify.SUITE_NAMES) - {"all"}
    names = [rep.name for rep in verify.run_suite("all", 7)]
    assert sorted(names) == sorted(name for rows in expected.values()
                                   for name in rows)
