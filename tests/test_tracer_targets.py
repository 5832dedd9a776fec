"""The benchmark tracer's wrap targets exist and are restored.

`perfbench/tracer.py` wraps layer functions by attribute name, some of
which (``laws.kernel_derivative``) have no caller in the package; a
name removed here would make every traced benchmark run fail.  The file
is read and executed as a private module: nothing is imported from or
written to the benchmark directory.
"""

import sys
import types
from pathlib import Path

import cyclic_motion
# the tracer reads these as pkg.<module>; the package root imports none
from cyclic_motion import (cli, laws, pde, rng, simulate,  # noqa: F401
                           stats, verify)

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer_module():
    module = types.ModuleType("perfbench_tracer")
    sys.modules[module.__name__] = module
    try:
        exec(compile(TRACER.read_text(), str(TRACER), "exec"),
             module.__dict__)
    finally:
        del sys.modules[module.__name__]
    return module


def test_tracer_wraps_and_restores_every_target(monkeypatch):
    # uninstall leaves the inherited ConditionalLaw methods set on the
    # class itself; monkeypatch takes them off again
    for attr in ("density", "cdf"):
        monkeypatch.setattr(laws.ConditionalLaw, attr,
                            getattr(laws.ConditionalLaw, attr))
    tracer_mod = _tracer_module()
    tracer = tracer_mod.Tracer()
    try:
        tracer_mod.install_layer_spans(tracer, cyclic_motion)
        patches = list(tracer._patches)
    finally:
        tracer.uninstall()
    for owner, attr, original in patches:
        assert getattr(owner, attr) is original, attr
