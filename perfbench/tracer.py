"""In-memory span tracer for the layer-by-layer benchmark run.

A span is (name, start, end, parent).  Spans are recorded by wrapping a
public function under the attribute its caller looks up at call time,
so the program under test is not edited.  Spans live in flat arrays
while the traced pass runs and are summarised (or written out) after it.
"""

from __future__ import annotations

import functools
import inspect
import time
from array import array
from collections import defaultdict

import numpy as np

# Functions defined in `bessel` and imported by name into `laws`: the
# wrapper sits on the `laws` attribute but the time belongs to `bessel`.
BESSEL_IN_LAWS = ("scaled_series", "kernel_derivative", "bessel_i_scaled")
LAYERS = ("rng", "model", "simulate", "bessel", "laws", "stats", "pde",
          "verify", "cli")


def layer_of(name: str) -> str:
    """Layer a span name belongs to."""
    if name == "simulate.classify_stratum":
        return "model"
    module, _, attr = name.partition(".")
    if module == "laws" and attr in BESSEL_IN_LAWS:
        return "bessel"
    return module


class Tracer:
    """Records nested spans around wrapped functions."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def record(self, name: str, start: float, end: float,
               parent: int = -1) -> int:
        """Append a finished span; returns its index (used by tests)."""
        self.name_id.append(self._id(name))
        self.parent.append(parent)
        self.start.append(start)
        self.end.append(end)
        return len(self.start) - 1

    def wrap(self, owner, attr: str, name: str, count=None) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper.

        ``count(args, kwargs)``, if given, is added to ``counts[name]``
        on every call (work done, e.g. values drawn).
        """
        original = getattr(owner, attr)
        nid = self._id(name)
        name_ids, parents = self.name_id, self.parent
        starts, ends, stack = self.start, self.end, self._stack
        counts, clock = self.counts, time.perf_counter

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if count is not None:
                counts[name] += count(args, kwargs)
            idx = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return original(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def wrap_public_functions(self, module, prefix: str) -> None:
        """Wrap every public function defined in ``module`` itself."""
        for attr, obj in list(vars(module).items()):
            if (not attr.startswith("_") and inspect.isfunction(obj)
                    and obj.__module__ == module.__name__):
                self.wrap(module, attr, f"{prefix}.{attr}")

    def uninstall(self) -> None:
        """Restore every wrapped attribute, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def arrays(self):
        """Spans as numpy arrays: (name_id, parent, start, end)."""
        return (np.frombuffer(self.name_id, dtype=np.int32).astype(np.int64),
                np.frombuffer(self.parent, dtype=np.int32).astype(np.int64),
                np.frombuffer(self.start, dtype=np.float64).copy(),
                np.frombuffer(self.end, dtype=np.float64).copy())

    def write(self, path: str) -> None:
        """Write all spans to a ``.npz`` file (names plus four arrays)."""
        name_id, parent, start, end = self.arrays()
        np.savez_compressed(path, names=np.array(self.names), name_id=name_id,
                            parent=parent, start=start, end=end)


def self_times(parent: np.ndarray, start: np.ndarray,
               end: np.ndarray) -> np.ndarray:
    """Per-span self time: duration minus the time its children cover.

    Spans come from one thread, so a span's children are disjoint and
    lie inside it; the time they cover is the sum of their durations.
    """
    dur = end - start
    has_parent = parent >= 0
    covered = np.bincount(parent[has_parent], weights=dur[has_parent],
                          minlength=dur.size)
    return dur - covered


def has_ancestor(parent: np.ndarray, flagged: np.ndarray) -> np.ndarray:
    """True for each span with a flagged span among its ancestors."""
    out = np.zeros(parent.size, dtype=bool)
    anc = parent.copy()
    while np.any(anc >= 0):
        live = anc >= 0
        out[live] |= flagged[anc[live]]
        anc[live] = parent[anc[live]]
    return out


def install_layer_spans(tracer: Tracer, pkg) -> None:
    """Wrap the public layer functions of the ``cyclic_motion`` modules.

    Each wrapper sits under the name its caller looks up at call time:
    ``rng.*`` is called as ``rng.f`` from ``simulate``;
    ``classify_stratum`` is a global of ``simulate``; the Bessel kernels
    are globals of ``laws``; ``cmd_*`` are globals of ``cli``.
    """
    tracer.wrap(pkg.rng, "uniform_column", "rng.uniform_column",
                count=lambda a, k: np.size(a[0] if a else k["keys"]))
    tracer.wrap(pkg.rng, "substream_keys", "rng.substream_keys")
    tracer.wrap(pkg.simulate, "simulate_ensemble", "simulate.simulate_ensemble",
                count=lambda a, k: a[2] if len(a) > 2 else k["count"])
    tracer.wrap(pkg.simulate, "classify_stratum", "simulate.classify_stratum")
    for attr in BESSEL_IN_LAWS:
        tracer.wrap(pkg.laws, attr, f"laws.{attr}")
    for module, prefix in ((pkg.laws, "laws"), (pkg.stats, "stats"),
                           (pkg.pde, "pde")):
        tracer.wrap_public_functions(module, prefix)
    tracer.wrap(pkg.laws.ConditionalLaw, "density",
                "laws.ConditionalLaw.density")
    tracer.wrap(pkg.laws.ConditionalLaw, "cdf", "laws.ConditionalLaw.cdf")
    tracer.wrap(pkg.verify, "run_suite", "verify.run_suite")
    for attr in [a for a in vars(pkg.cli) if a.startswith("cmd_")]:
        tracer.wrap(pkg.cli, attr, f"cli.{attr}")


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer counts and self times of one traced pass."""
    name_id, parent, start, end = tracer.arrays()
    names = tracer.names
    layer_idx = {layer: i for i, layer in enumerate(LAYERS)}
    span_layer = np.array([layer_idx[layer_of(n)] for n in names],
                          dtype=np.int64)[name_id]
    self_s = np.bincount(span_layer, weights=self_times(parent, start, end),
                         minlength=len(LAYERS))
    calls = np.bincount(name_id, minlength=len(names))
    by_name = dict(zip(names, calls.tolist()))

    # A call *into* laws is a laws span whose parent is outside laws.
    parent_layer = np.where(parent >= 0, span_layer[np.maximum(parent, 0)], -1)
    entry = span_layer != parent_layer
    laws_id = layer_idx["laws"]

    def laws_entries(word):
        hit = np.array([word in n for n in names], dtype=bool)[name_id]
        return int(np.sum(entry & hit & (span_layer == laws_id)))

    is_pde = (span_layer == layer_idx["pde"])
    density_u_id = (names.index("laws.density_u")
                    if "laws.density_u" in names else -1)
    pde_density = int(np.sum((name_id == density_u_id)
                             & has_ancestor(parent, is_pde)))
    paths = tracer.counts.get("simulate.simulate_ensemble", 0.0)
    values = tracer.counts.get("rng.uniform_column", 0.0)
    m = {f"{layer}.self_s": float(self_s[i]) for i, layer in enumerate(LAYERS)}
    m.update({
        "rng.columns": by_name.get("rng.uniform_column", 0),
        "rng.values": int(values),
        "simulate.calls": by_name.get("simulate.simulate_ensemble", 0),
        "simulate.paths": int(paths),
        "simulate.draws_per_path": values / paths if paths else 0.0,
        "model.classify_calls": by_name.get("simulate.classify_stratum", 0),
        "bessel.calls": int(np.sum(span_layer == layer_idx["bessel"])),
        "laws.density_calls": laws_entries("density"),
        "laws.cdf_calls": laws_entries("cdf"),
        "stats.calls": int(np.sum(span_layer == layer_idx["stats"])),
        "pde.calls": int(np.sum(is_pde)),
        "pde.density_evals": pde_density,
    })
    return m
