"""Workload command lists and the output check of every command.

Each workload is a list of ``cyclic-motion`` argument lists, run through
``cyclic_motion.cli.main(argv)``.  The benchmark seed reaches the
program only as ``--seed``.  ``small=True`` gives the same commands at
a tiny size, for the warm-up pass and the self-test.  Why each workload
exists is recorded in ``WORKLOADS.md`` next to this file.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
from dataclasses import dataclass, field

import numpy as np

# Ensemble size in a small (warm-up or self-test) pass of a verify
# workload; chi_square_masses needs at least 1000 observations.
SMALL_ENSEMBLE = 2000
# A density table's trapezoid mass must match the header's ac_mass.
AC_MASS_TOL = 1e-6
# Shell outcomes can land one ulp above ct (ROADMAP item 3); u up to
# this many ulps above ct is reported, not failed.
SHELL_ULPS = 4
KNOWN_BUG_ROWS = {
    "cf_quad_vs_mc_n0_a0.5_b0.5":
        "known z-score bug on a zero-variance sample (ROADMAP item 3)",
}

_ANGLE_TAGS = ("a1_b0", "a0_b1", "a0.5_b0.5")
EXPECTED_ROWS = {
    "distributions": (
        ["boundary_mass_2d"]
        + [f"{kind}_3d_lt{lt}" for lt in ("0.5", "1", "2")
           for kind in ("strata_masses", "vertex_uniformity")]
        + ["conditional_uniformity_2d_n2"]
        + [f"conditional_law_dim{d}_n{n}" for d in (2, 3) for n in (3, 4, 5, 6)]
        + [f"normalization_dim{d}_lt{lt}" for d in (2, 3)
           for lt in ("0.5", "1", "2", "5")]
        + ["density_forms_agree_dim2", "density_forms_agree_dim3"]
        + [f"mixture_identity_dim{d}_lt{lt}" for d in (2, 3)
           for lt in ("0.5", "2")]
        + ["u1_eq_u2_n2", "u1_eq_u2_n4", "u2_eq_u3_n3", "u2_eq_u3_n5"]),
    "moments": (
        [f"conditional_mean_mc_3d_n{n}" for n in (3, 4, 5)]
        + ["conditional_mean_quadrature_3d", "mean_vs_quadrature_2d",
           "mean_vs_mc_2d", "moments_vs_quadrature_2d",
           "moment_edge_cases_2d"]),
    "pde": (
        ["klein_gordon_dim2", "klein_gordon_dim3",
         "planar_fourth_order_point", "kernel_identity_kgg"]
        + [f"cf_recursion_n{n}_j{j}_{ab}" for n in (1, 2) for j in (1, 2, 3, 4)
           for ab in _ANGLE_TAGS]
        + [f"cf_quad_vs_mc_n{n}_{ab}" for n in (0, 1, 2)
           for ab in ("a1_b0", "a0.5_b0.5")]),
    "limits": ["heat_limit_dim2", "heat_limit_dim3"],
    "conjecture": ["u3_eq_u4_n4", "u4_eq_u5_n5"],
}


@dataclass(frozen=True)
class Command:
    """One CLI invocation and what its output must satisfy."""

    argv: tuple[str, ...]
    kind: str                       # "simulate", "density" or "verify"
    out: str
    dim: int = 2
    count: int = 0                  # simulate: rows expected
    condition_n: int | None = None  # simulate: fixed switch count
    suite: str = ""                 # verify: suite name
    paths: int = 0                  # simulated paths the command requests


def _simulate(out, seed, dim, count, condition_n=None):
    argv = ["simulate", "--dim", str(dim), "--lambda", "1", "--c", "1",
            "--t", "1", "--count", str(count), "--seed", str(seed),
            "--out", out]
    if condition_n is not None:
        argv += ["--condition-n", str(condition_n)]
    return Command(tuple(argv), "simulate", out, dim=dim, count=count,
                   condition_n=condition_n, paths=count)


def _density(out, dim, lam_t, points):
    conds = "2,3" if dim == 2 else "3,4"
    argv = ["density", "--dim", str(dim), "--lambda", str(lam_t), "--c", "1",
            "--t", "1", "--points", str(points), "--conditionals", conds,
            "--out", out]
    return Command(tuple(argv), "density", out, dim=dim)


def _verify(out, seed, suite, paths=0):
    argv = ["verify", "--suite", suite, "--seed", str(seed), "--out", out]
    return Command(tuple(argv), "verify", out, suite=suite, paths=paths)


def commands(workload: str, seed: int, workdir: str,
             small: bool = False) -> list[Command]:
    """The command list of ``workload``, writing into ``workdir``."""
    def out(i, ext):
        return os.path.join(workdir, f"{workload}-{i}.{ext}")

    if workload == "heat":
        # heat_limit: dims 2 and 3, three ensembles each, lam = c^2.
        paths = 6 * (SMALL_ENSEMBLE if small else 200_000)
        return [_verify(out(0, "json"), seed, "limits", paths)]
    if workload == "tables":
        points = 11 if small else 1001
        return [_density(out(i, "csv"), dim, lt, points)
                for i, (dim, lt) in enumerate(
                    (d, lt) for d in (2, 3) for lt in (1, 100, 1000))]
    if workload == "export":
        count = 1000 if small else 100_000
        return [_simulate(out(i, "csv"), seed, dim, count, cond)
                for i, (dim, cond) in enumerate(
                    ((2, None), (3, None), (8, None), (3, 6)))]
    if workload == "checks":
        return [_verify(out(i, "json"), seed, suite)
                for i, suite in enumerate(
                    ("distributions", "moments", "pde", "conjecture"))]
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("heat", "tables", "export", "checks")


@contextlib.contextmanager
def small_ensembles(simulate_module, cap: int = SMALL_ENSEMBLE):
    """Cap every ``simulate_ensemble`` count at ``cap`` inside the block.

    Verify suites have no size flag; this is how their small pass is
    made.  The CLI ``simulate`` command asks for at most ``cap`` rows
    in a small pass, so its output is not truncated.
    """
    original = simulate_module.simulate_ensemble

    def capped(params, horizon, count, seed, *args, **kwargs):
        return original(params, horizon, min(count, cap), seed,
                        *args, **kwargs)

    simulate_module.simulate_ensemble = capped
    try:
        yield
    finally:
        simulate_module.simulate_ensemble = original


@dataclass
class Outcome:
    """Result of checking one command's output."""

    ok: bool
    problems: list[str] = field(default_factory=list)
    rows: int = 0                   # CSV data rows or verify report rows
    rows_failed: int = 0            # verify rows with pass == false
    failing_rows: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    digest: str = ""


def _read_csv(path):
    """Header pairs, column names and preamble length of a CLI CSV."""
    header = {}
    with open(path, encoding="utf-8") as f:
        line = f.readline()
        while line.startswith("# "):
            key, _, value = line[2:].rstrip("\n").partition("=")
            header[key] = value
            line = f.readline()
    return header, line.rstrip("\n").split(","), len(header) + 1


def _load(path, skip, **kwargs):
    return np.loadtxt(path, delimiter=",", skiprows=skip, **kwargs)


def _digest(path):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def check_simulate(cmd: Command, rc: int, classify) -> Outcome:
    problems, notes = [], []
    if rc != 0:
        return Outcome(False, [f"exit code {rc}, expected 0"])
    header, columns, skip = _read_csv(cmd.out)
    expected_cols = (["replication", "n_events", "u", "stratum"]
                     + [f"x{i + 1}" for i in range(cmd.dim)]
                     + ["final_direction"])
    if columns != expected_cols:
        return Outcome(False, [f"columns {columns} != {expected_cols}"])
    try:
        # Reading the last column too rejects rows that are cut short.
        numeric = _load(cmd.out, skip, usecols=(1, 2, len(columns) - 1),
                        ndmin=2)
        strata = _load(cmd.out, skip, usecols=3, dtype=str, ndmin=1)
    except ValueError as exc:
        return Outcome(False, [f"unreadable rows: {exc}"])
    n_events, u = numeric[:, 0].astype(np.int64), numeric[:, 1]
    if n_events.size != cmd.count:
        return Outcome(False, [f"{n_events.size} rows, expected {cmd.count}"],
                       rows=int(n_events.size))
    ct = float(header["c"]) * float(header["t"])
    if np.any(u < 0) or np.any(u > ct + SHELL_ULPS * np.spacing(ct)):
        problems.append("u outside [0, ct]")
    above = int(np.sum(u > ct))
    if above:
        notes.append(f"{above} shell rows with u a few ulps above ct "
                     "(ROADMAP item 3)")
    labels = {n: classify(int(n), cmd.dim) for n in np.unique(n_events)}
    if np.any(strata != np.array([labels[n] for n in n_events])):
        problems.append("stratum label != classify_stratum(n_events, dim)")
    if cmd.condition_n is not None and np.any(n_events != cmd.condition_n):
        problems.append(f"n_events != {cmd.condition_n}")
    return Outcome(not problems, problems, rows=int(n_events.size),
                   notes=notes, digest=_digest(cmd.out))


def check_density(cmd: Command, rc: int, small: bool = False) -> Outcome:
    """Finite, non-negative values; at full size the trapezoid of
    p_unconditional matches the header's ac_mass."""
    if rc != 0:
        return Outcome(False, [f"exit code {rc}, expected 0"])
    header, columns, skip = _read_csv(cmd.out)
    problems = []
    try:
        table = _load(cmd.out, skip, ndmin=2)
    except ValueError as exc:
        return Outcome(False, [f"unreadable rows: {exc}"])
    if table.shape[1] != len(columns):
        return Outcome(False, ["malformed table"], rows=len(table))
    if not np.all(np.isfinite(table)) or np.any(table[:, 1:] < 0):
        problems.append("density value not finite or negative")
    if "p_unconditional" in columns and not small:
        p = table[:, columns.index("p_unconditional")]
        u = table[:, 0]
        mass = float(np.sum(0.5 * (p[1:] + p[:-1]) * np.diff(u)))
        err = abs(mass - float(header["ac_mass"]))
        if not err <= AC_MASS_TOL:
            problems.append(f"|trapezoid - ac_mass| = {err:.3g}")
    return Outcome(not problems, problems, rows=len(table),
                   digest=_digest(cmd.out))


def check_verify(cmd: Command, rc: int, small: bool = False) -> Outcome:
    """Exit code 0 or 3, parsable JSON, exactly the expected rows.

    Monte-Carlo verdicts do not gate, except that a full-size heat run
    must pass both heat_limit rows.
    """
    if rc not in (0, 3):
        return Outcome(False, [f"exit code {rc}, expected 0 or 3"])
    try:
        with open(cmd.out, encoding="utf-8") as f:
            reports = json.load(f)["reports"]
        names = [r["name"] for r in reports]
        failing = [r["name"] for r in reports if not r["pass"]]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return Outcome(False, [f"unreadable report: {exc}"])
    problems = []
    expected = EXPECTED_ROWS[cmd.suite]
    if sorted(names) != sorted(expected):
        missing = sorted(set(expected) - set(names))
        extra = sorted(set(names) - set(expected))
        problems.append(f"rows differ: missing {missing}, unexpected {extra}")
    if cmd.suite == "limits" and not small and failing:
        problems.append(f"heat rows failed: {failing}")
    return Outcome(not problems, problems, rows=len(names),
                   rows_failed=len(failing), failing_rows=failing)


def check(cmd: Command, rc: int, classify, small: bool = False) -> Outcome:
    if cmd.kind == "simulate":
        return check_simulate(cmd, rc, classify)
    if cmd.kind == "density":
        return check_density(cmd, rc, small)
    return check_verify(cmd, rc, small)


def same_bytes(cmd: Command, digest: str) -> bool:
    """True if ``cmd.out`` holds the bytes whose digest is given."""
    return _digest(cmd.out) == digest
