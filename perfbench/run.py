"""Benchmark of the cyclic-motion CLI: four workloads and a traced run.

Run from the root of a checkout:

    python3 perfbench/run.py --workload heat --seed 7 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all --seed 7 --seconds 50 --trace 0

One process runs one workload (``all`` starts one process per workload,
one after the other).  The process imports ``cyclic_motion`` from the
checkout's ``src``, times a fresh interpreter's import of
``cyclic_motion.cli`` (``setup_s``), runs one small warm-up pass, then
repeats full passes over the workload's command list for ``--seconds``
and checks every command's output.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and reports per-layer counts and self times
from spans recorded around the calls into each module; spans of the
last traced pass are written to ``perfbench/out/``.

Human-readable lines come first; the last line of standard output is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread per process, set before numpy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from types import SimpleNamespace  # noqa: E402

import tracer as tr  # noqa: E402
import workloads as wl  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")
# Fresh interpreters timed per run for setup_s; the median is reported.
SETUP_RUNS = 5
SUITES = ("distributions", "moments", "pde", "limits", "conjecture")
MODULES = ("rng", "model", "simulate", "laws", "stats", "pde", "verify", "cli")


def load_package() -> SimpleNamespace:
    """Import the ``cyclic_motion`` modules from this checkout's ``src``."""
    sys.path.insert(0, SRC)
    pkg = importlib.import_module("cyclic_motion")
    if not os.path.abspath(pkg.__file__).startswith(SRC + os.sep):
        raise RuntimeError(f"cyclic_motion imported from {pkg.__file__}, "
                           f"not from {SRC}")
    return SimpleNamespace(**{
        m: importlib.import_module(f"cyclic_motion.{m}") for m in MODULES})


def environment() -> dict:
    """Machine and software record stored with every result."""
    import numpy
    import scipy
    cpu = platform.processor() or platform.machine()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    commit = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(
            ["git", "--git-dir", os.path.join(ROOT, ".git"), "rev-parse",
             "HEAD"], capture_output=True, text=True, timeout=30, check=False)
        commit = proc.stdout.strip() or "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": commit,
        "blas_threads": 1,
    }


def measure_setup() -> float:
    """Wall time for a fresh interpreter to import ``cyclic_motion.cli``."""
    code = f"import sys; sys.path.insert(0, {SRC!r}); import cyclic_motion.cli"
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True,
                   timeout=120, stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


def run_command(cli, cmd) -> tuple[int | None, float, str]:
    """Run one CLI command; returns (exit code or None, seconds, error)."""
    sink = io.StringIO()
    error = ""
    # Start every command from the same collector state, untimed.
    gc.collect()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            rc = cli.main(list(cmd.argv))
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # an operation that raises counts as failed
        rc, error = None, f"raised {exc!r}"
    return rc, time.perf_counter() - t0, error


class Run:
    """Counts and checked outputs across the passes of a run."""

    def __init__(self, pkg, workload: str, seed: int, workdir: str):
        self.pkg = pkg
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.failing_rows: set[str] = set()
        self.notes: set[str] = set()
        # First checked outcome of each (argv, small); CSV outputs of a
        # later run of the same command must repeat its bytes.
        self.checked: dict[tuple, wl.Outcome] = {}

    def _fail(self, cmd, why: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(f"{' '.join(cmd.argv[:3])}: {why}")

    def run_pass(self, small: bool = False) -> dict:
        """One pass over the command list; returns timings and counts."""
        cmds = wl.commands(self.workload, self.seed, self.workdir, small=small)
        seconds, rows, csv_rows, rows_failed, nbytes = [], 0, 0, 0, 0
        for cmd in cmds:
            self.attempted += 1
            with (wl.small_ensembles(self.pkg.simulate) if small
                  else contextlib.nullcontext()):
                rc, dt, error = run_command(self.pkg.cli, cmd)
            seconds.append(dt)
            if error:
                self._fail(cmd, error)
                continue
            key = (cmd.argv, small)
            if key in self.checked and cmd.kind != "verify":
                outcome = self.checked[key]
                if rc != 0 or not wl.same_bytes(cmd, outcome.digest):
                    self._fail(cmd, "output differs from an earlier run "
                                    "with the same seed")
                    continue
            else:
                try:
                    outcome = wl.check(cmd, rc,
                                       self.pkg.model.classify_stratum, small)
                except (OSError, KeyError, IndexError, ValueError) as exc:
                    outcome = wl.Outcome(False, [f"unreadable output: {exc!r}"])
                self.checked.setdefault(key, outcome)
            if not outcome.ok:
                self._fail(cmd, "; ".join(outcome.problems))
            if not small:
                self.failing_rows.update(outcome.failing_rows)
                self.notes.update(f"{' '.join(cmd.argv[:3])}: {note}"
                                  for note in outcome.notes)
            rows += outcome.rows
            csv_rows += 0 if cmd.kind == "verify" else outcome.rows
            rows_failed += outcome.rows_failed
            if os.path.exists(cmd.out):
                nbytes += os.path.getsize(cmd.out)
                os.remove(cmd.out)
        return {"seconds": seconds, "wall": sum(seconds), "cmds": cmds,
                "rows": rows, "csv_rows": csv_rows,
                "rows_failed": rows_failed, "bytes": nbytes,
                "paths": sum(c.paths for c in cmds)}

    def check_repeats(self) -> None:
        """Re-run, untimed, each full-size CSV command run only once."""
        for cmd in wl.commands(self.workload, self.seed, self.workdir):
            first = self.checked.get((cmd.argv, False))
            if cmd.kind != "verify" and first is not None:
                self.attempted += 1
                rc, _, error = run_command(self.pkg.cli, cmd)
                if error or rc != 0 or not wl.same_bytes(
                        cmd, first.digest):
                    self._fail(cmd, error or "output differs from an earlier "
                                             "run with the same seed")


def repeat_for(seconds: float, step) -> None:
    """Call ``step`` once, then again while one more call as long as the
    last one would still end within ``seconds`` of the first call's start.

    A run then ends near ``seconds`` instead of overrunning by up to a
    pass, and a single pass longer than half of ``seconds`` (heat) is
    not repeated.
    """
    t_end = time.perf_counter() + seconds
    while True:
        t0 = time.perf_counter()
        step()
        now = time.perf_counter()
        if now + (now - t0) > t_end:
            return


def measure(run: Run, seconds: float) -> dict:
    """End-to-end metrics: repeat full passes for ``seconds``."""
    setup = [measure_setup() for _ in range(SETUP_RUNS)]
    run.run_pass(small=True)
    passes = []
    repeat_for(seconds, lambda: passes.append(run.run_pass()))
    if len(passes) == 1:
        run.check_repeats()
    # The median pass: the fastest pass of a run is one lucky moment of
    # a shared machine, so it spreads more between runs.
    wall = statistics.median(p["wall"] for p in passes)
    first = passes[0]
    extra = {"passes": len(passes),
             "wall_min_s": (min(p["wall"] for p in passes), "s"),
             "command_s": [p["seconds"] for p in passes]}
    if first["paths"]:
        extra["paths_per_s"] = (first["paths"] / wall, "1/s")
    if first["csv_rows"]:
        extra["rows_per_s"] = (first["csv_rows"] / wall, "1/s")
    metrics = {
        "wall_s": (wall, "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
    }
    return {"metrics": metrics, "extra": extra}


def measure_traced(run: Run, seconds: float) -> dict:
    """Per-layer metrics: alternate untraced and traced passes."""
    run.run_pass(small=True)
    untraced, traced, layers = [], [], []
    spans = None

    def pair():
        nonlocal spans
        untraced.append(run.run_pass())
        spans = tr.Tracer()
        tr.install_layer_spans(spans, run.pkg)
        try:
            traced.append(run.run_pass())
        finally:
            spans.uninstall()
        layers.append(tr.layer_metrics(spans))

    repeat_for(seconds, pair)
    spans.write(os.path.join(
        OUT_DIR, f"spans-{run.workload}-seed{run.seed}.npz"))
    metrics = {k: (statistics.median(m[k] for m in layers),
                   "count" if not k.endswith("_s") else "s")
               for k in layers[0]}
    metrics["simulate.draws_per_path"] = (
        metrics["simulate.draws_per_path"][0], "draws/path")
    for suite in SUITES:
        per = [sum(dt for dt, c in zip(p["seconds"], p["cmds"])
                   if c.suite == suite) for p in untraced]
        metrics[f"verify.suite.{suite}_s"] = (statistics.median(per), "s")
    last = traced[-1]
    metrics["verify.rows"] = (last["rows"] - last["csv_rows"], "count")
    metrics["verify.rows_failed"] = (last["rows_failed"], "count")
    metrics["cli.rows"] = (last["csv_rows"], "count")
    metrics["cli.bytes_written"] = (last["bytes"], "bytes")
    metrics["trace.overhead_s"] = (
        statistics.median(p["wall"] for p in traced)
        - statistics.median(p["wall"] for p in untraced), "s")
    shares = {layer: metrics[f"{layer}.self_s"][0] for layer in tr.LAYERS}
    total = sum(shares.values()) or 1.0
    extra = {"passes": len(traced),
             "self_share": {k: round(v / total, 4) for k, v in shares.items()}}
    return {"metrics": metrics, "extra": extra}


def run_workload(workload: str, seed: int, seconds: float,
                 trace: bool) -> int:
    pkg = load_package()
    env = environment()
    os.makedirs(OUT_DIR, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as workdir:
        run = Run(pkg, workload, seed, workdir)
        result = (measure_traced if trace else measure)(run, seconds)
    metrics, extra = result["metrics"], result["extra"]
    print(f"env: {json.dumps(env)}")
    print(f"workload={workload} seed={seed} trace={int(trace)} "
          f"passes={extra['passes']}")
    shown = dict(metrics)
    shown.update({k: v for k, v in extra.items() if isinstance(v, tuple)})
    for name, (value, unit) in shown.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(f"  failed_ratio = {run.failed / run.attempted:.6g} "
          f"({run.failed} failed / {run.attempted} attempted)")
    if "self_share" in extra:
        print("  self-time share: " + ", ".join(
            f"{k} {v:.1%}" for k, v in extra["self_share"].items()))
    for row in sorted(run.failing_rows):
        why = wl.KNOWN_BUG_ROWS.get(row, "failing verify row, not gated")
        print(f"  verify row {row}: {why}")
    for note in sorted(run.notes):
        print(f"  note: {note}")
    for problem in run.problems:
        print(f"  FAILED {problem}")
    doc = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = dict(doc, workload=workload, seed=seed, trace=int(trace),
                  env=env, passes=extra["passes"], problems=run.problems,
                  failing_rows=sorted(run.failing_rows),
                  extra={k: v for k, v in extra.items() if k != "passes"})
    with open(os.path.join(OUT_DIR, f"result-{workload}-seed{seed}"
                                    f"-trace{int(trace)}.json"), "w",
              encoding="utf-8") as f:
        json.dump(record, f, indent=2)
    print(json.dumps(doc))
    return 0


def run_all(args) -> int:
    """Run every workload, each in its own process, one after another."""
    worst = 0
    for workload in wl.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)], check=False)
        worst = max(worst, proc.returncode)
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=wl.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "cyclic_motion", "cli.py")):
        print(f"perfbench: {SRC}/cyclic_motion not found; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    # Keep git (run by the CLI for its headers) inside this checkout.
    os.environ["GIT_CEILING_DIRECTORIES"] = os.path.dirname(ROOT)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args.workload, args.seed, args.seconds,
                        bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
