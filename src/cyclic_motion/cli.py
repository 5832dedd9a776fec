"""Command-line harness: simulate ensembles, tabulate densities, verify.

Subcommands
-----------
simulate
    Draw a seeded ensemble and write one CSV row per replication
    (``replication, n_events, u, stratum, x1..xd, final_direction``).
density
    Tabulate the radius density on a u-grid: column ``p_unconditional``
    (dims 2-3) plus one ``p_cond_n{n}`` column per requested switch
    count.  Dim 1 offers conditional columns only; dims above 3 are
    simulation-only and rejected.
verify
    Run a verification suite and write a JSON report (array of
    ``{name, statistic, p_value, tolerance, pass, ...}`` objects).

Exit codes: 0 success, 1 bad arguments, 2 I/O failure, 3 verification
failure.  All randomized subcommands require ``--seed``; equal flags
produce byte-identical output files.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import subprocess
import sys
from dataclasses import dataclass

import numpy as np

from . import __version__, laws, simulate, verify
from .model import ModelParams, require_horizon

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_VERIFY = 3


class _Parser(argparse.ArgumentParser):
    """argparse parser using exit code 1 (not 2) for bad arguments."""

    def error(self, message):
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


@dataclass(frozen=True)
class RunConfig:
    """Validated options of one CLI invocation."""

    command: str
    dim: int = 2
    lam: float = 1.0
    c: float = 1.0
    t: float = 1.0
    count: int = 1000
    seed: int | None = None
    condition_n: int | None = None
    points: int = 101
    conditionals: tuple[int, ...] = ()
    out: str = "-"
    suite: str = "all"
    max_dim: int = 5

    def model_params(self) -> ModelParams:
        return ModelParams(c=self.c, lam=self.lam, dim=self.dim)


def _git_describe() -> str:
    here = os.path.dirname(os.path.abspath(__file__))
    try:
        proc = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            capture_output=True, text=True, timeout=5, cwd=here)
        if proc.returncode == 0 and proc.stdout.strip():
            return proc.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown"


def _open_out(path: str):
    if path == "-":
        return contextlib.nullcontext(sys.stdout)
    return open(path, "w", encoding="utf-8", newline="")


def _fmt(x) -> str:
    return repr(float(x))


def _header_lines(config: RunConfig, **extra) -> list[str]:
    pairs = {
        "generator": f"cyclic-motion {__version__}",
        "git": _git_describe(),
        "c": _fmt(config.c),
        "lambda": _fmt(config.lam),
        "dim": config.dim,
        "t": _fmt(config.t),
    }
    pairs.update(extra)
    return [f"# {k}={v}" for k, v in pairs.items()]


def cmd_simulate(config: RunConfig) -> int:
    params = config.model_params()
    samples = simulate.simulate_ensemble(
        params, config.t, config.count, config.seed,
        conditioning=config.condition_n)
    lines = _header_lines(
        config, sampler=simulate.SAMPLER_ID, count=config.count,
        seed=config.seed,
        condition_n="" if config.condition_n is None else config.condition_n)
    cols = (["replication", "n_events", "u", "stratum"]
            + [f"x{i + 1}" for i in range(params.dim)]
            + ["final_direction"])
    strata = samples.strata
    with _open_out(config.out) as f:
        for line in lines:
            f.write(line + "\n")
        f.write(",".join(cols) + "\n")
        for i in range(config.count):
            row = [str(i), str(int(samples.n_events[i])),
                   _fmt(samples.u[i]), strata[i]]
            row += [_fmt(x) for x in samples.positions[i]]
            row.append(str(int(samples.final_direction[i])))
            f.write(",".join(row) + "\n")
    return EXIT_OK


def cmd_density(config: RunConfig) -> int:
    params = config.model_params()
    if params.dim > 3:
        print(f"density: dim {params.dim} is a simulation-only dimension "
              "(analytic output requires dim <= 3)", file=sys.stderr)
        return EXIT_USAGE
    has_unconditional = params.dim in (2, 3)
    if not has_unconditional and not config.conditionals:
        print("density: dim 1 tabulates conditional laws only; "
              "pass --conditionals", file=sys.stderr)
        return EXIT_USAGE
    cond_laws = {n: laws.ConditionalLaw(params, n, config.t)
                 for n in config.conditionals}
    ct = params.c * config.t
    masses = laws.singular_masses(params, config.t)
    extra = {}
    for sm in masses:
        extra[f"singular_mass_{sm.stratum}"] = _fmt(sm.mass)
    extra["singular_mass_total"] = _fmt(sum(sm.mass for sm in masses))
    extra["ac_mass"] = _fmt(laws.ac_mass(params, config.t))
    if params.dim == 2:
        extra["mean_u"] = _fmt(laws.mean_u(params, config.t))
        extra["moment2_u"] = _fmt(laws.moment_u(params, 2, config.t))
    lines = _header_lines(config, points=config.points, **extra)
    cols = ["u"]
    if has_unconditional:
        cols.append("p_unconditional")
    cols += [f"p_cond_n{n}" for n in sorted(cond_laws)]
    us = ct * np.arange(config.points) / max(config.points - 1, 1)
    columns = [us]
    if has_unconditional:
        columns.append(laws.density_u(params, config.t, us))
    columns += [cond_laws[n].density(us) for n in sorted(cond_laws)]
    with _open_out(config.out) as f:
        for line in lines:
            f.write(line + "\n")
        f.write(",".join(cols) + "\n")
        for row in zip(*columns):
            f.write(",".join(_fmt(x) for x in row) + "\n")
    return EXIT_OK


def cmd_verify(config: RunConfig) -> int:
    reports = verify.run_suite(config.suite, config.seed,
                               max_dim=config.max_dim)
    for rep in reports:
        print(rep.line())
    doc = {
        "suite": config.suite,
        "seed": config.seed,
        "max_dim": config.max_dim,
        "git": _git_describe(),
        "sampler": simulate.SAMPLER_ID,
        "reports": [rep.as_dict() for rep in reports],
    }
    with _open_out(config.out) as f:
        json.dump(doc, f, indent=2)
        f.write("\n")
    failures = [rep.name for rep in reports if rep.blocking and not rep.passed]
    if failures:
        print("verification failure: " + ", ".join(failures),
              file=sys.stderr)
        return EXIT_VERIFY
    return EXIT_OK


def _parse_conditionals(text: str) -> tuple[int, ...]:
    if not text:
        return ()
    try:
        values = tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"--conditionals expects comma-separated integers: {exc}")
    return values


def build_parser() -> _Parser:
    parser = _Parser(prog="cyclic-motion",
                     description="Cyclic orthogonal random motion toolkit")
    parser.add_argument("--version", action="version",
                        version=f"cyclic-motion {__version__}")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    def add_model_flags(p, need_seed):
        p.add_argument("--dim", type=int, default=2)
        p.add_argument("--lambda", dest="lam", type=float, default=1.0,
                       help="switch intensity")
        p.add_argument("--c", type=float, default=1.0, help="speed")
        p.add_argument("--t", type=float, default=1.0, help="horizon")
        p.add_argument("--seed", type=int, required=need_seed,
                       help="RNG seed (required: no wall-clock seeding)")
        p.add_argument("--out", default="-", help="output path (default -)")

    p_sim = sub.add_parser("simulate", help="write one CSV row per path")
    add_model_flags(p_sim, need_seed=True)
    p_sim.add_argument("--count", type=int, default=1000)
    p_sim.add_argument("--condition-n", dest="condition_n", type=int,
                       default=None, help="fix the switch count")

    p_den = sub.add_parser("density", help="tabulate radius densities")
    add_model_flags(p_den, need_seed=False)
    p_den.add_argument("--points", type=int, default=101,
                       help="grid rows over [0, ct]")
    p_den.add_argument("--conditionals", type=_parse_conditionals,
                       default=(), help="comma list of switch counts")

    p_ver = sub.add_parser("verify", help="run a verification suite")
    p_ver.add_argument("--suite", choices=verify.SUITE_NAMES, default="all")
    p_ver.add_argument("--seed", type=int, required=True)
    p_ver.add_argument("--max-dim", dest="max_dim", type=int, default=5,
                       help="largest dimension for conjecture pairs")
    p_ver.add_argument("--out", default="-", help="report path (default -)")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    ns = parser.parse_args(argv)
    kwargs = {k: v for k, v in vars(ns).items() if v is not None}
    config = RunConfig(**kwargs)
    try:
        if config.command in ("simulate", "density"):
            config.model_params()
            require_horizon(config.t, "t")
        if config.command == "simulate" and config.count < 1:
            raise ValueError("count must be >= 1")
        if config.command == "density" and config.points < 1:
            raise ValueError("points must be >= 1")
        if config.command == "verify" and not 4 <= config.max_dim <= 8:
            raise ValueError("max-dim must be between 4 and 8")
    except ValueError as exc:
        print(f"{config.command}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        if config.command == "verify":
            return cmd_verify(config)
        command = cmd_simulate if config.command == "simulate" else cmd_density
        try:
            return command(config)
        except ValueError as exc:  # a parameter outside a supported range
            print(f"{config.command}: {exc}", file=sys.stderr)
            return EXIT_USAGE
    except OSError as exc:
        print(f"{config.command}: I/O error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
