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

Exit codes: 0 success, 1 bad arguments (any ``ValueError``) or a size
too large to allocate (``MemoryError``), 2 I/O failure, 3 verification
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

import numpy as np

from . import __version__, laws, simulate, verify
from .model import ModelParams

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_VERIFY = 3


class _Parser(argparse.ArgumentParser):
    """argparse parser using exit code 1 (not 2) for bad arguments."""

    def error(self, message):
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


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


# Rows formatted per chunk: a Python float and its list slot take 32
# bytes against 8 for a double, so larger chunks raise the peak RSS
# (4,096-row chunks added 2 MB to perfbench export's peak; 1,024 none).
_CHUNK_ROWS = 1024


def _write_csv(args: argparse.Namespace, names: list[str], columns: list,
               **header) -> None:
    """Write the header lines, the column names, then one row per index
    of the equal-length numpy ``columns``, `_CHUNK_ROWS` rows at a time.

    ``str`` of a Python float is its shortest round-trip ``repr``.
    """
    pairs = {"generator": f"cyclic-motion {__version__}",
             "git": _git_describe(), "c": args.c, "lambda": args.lam,
             "dim": args.dim, "t": args.t, **header}
    with _open_out(args.out) as f:
        f.writelines(f"# {k}={v}\n" for k, v in pairs.items())
        f.write(",".join(names) + "\n")
        for s in range(0, len(columns[0]), _CHUNK_ROWS):
            chunk = [col[s:s + _CHUNK_ROWS].tolist() for col in columns]
            f.writelines(",".join(map(str, row)) + "\n"
                         for row in zip(*chunk))


def cmd_simulate(args: argparse.Namespace) -> int:
    params = ModelParams(c=args.c, lam=args.lam, dim=args.dim)
    samples = simulate.simulate_ensemble(
        params, args.t, args.count, args.seed, conditioning=args.condition_n)
    cols = (["replication", "n_events", "u", "stratum"]
            + [f"x{i + 1}" for i in range(params.dim)]
            + ["final_direction"])
    columns = [np.arange(args.count), samples.n_events, samples.u,
               samples.strata, *samples.coordinates, samples.final_direction]
    condition_n = "" if args.condition_n is None else args.condition_n
    _write_csv(args, cols, columns, sampler=simulate.SAMPLER_ID,
               count=args.count, seed=args.seed, condition_n=condition_n)
    return EXIT_OK


def cmd_density(args: argparse.Namespace) -> int:
    params = ModelParams(c=args.c, lam=args.lam, dim=args.dim)
    if params.dim > 3:
        raise ValueError(f"dim {params.dim} is a simulation-only dimension "
                         "(analytic output requires dim <= 3)")
    has_unconditional = params.dim in (2, 3)
    if not has_unconditional and not args.conditionals:
        raise ValueError("dim 1 tabulates conditional laws only; "
                         "pass --conditionals")
    if args.points < 1:
        raise ValueError("points must be >= 1")
    cond_laws = {n: laws.ConditionalLaw(params, n, args.t)
                 for n in args.conditionals}
    ct = params.c * args.t
    masses = laws.singular_masses(params, args.t)
    extra = {f"singular_mass_{sm.stratum}": sm.mass for sm in masses}
    extra["singular_mass_total"] = sum(sm.mass for sm in masses)
    extra["ac_mass"] = laws.ac_mass(params, args.t)
    if params.dim == 2:
        extra["mean_u"] = laws.mean_u(params, args.t)
        extra["moment2_u"] = laws.moment_u(params, 2, args.t)
    cols = ["u"]
    if has_unconditional:
        cols.append("p_unconditional")
    cols += [f"p_cond_n{n}" for n in sorted(cond_laws)]
    us = ct * np.arange(args.points) / max(args.points - 1, 1)
    columns = [us]
    if has_unconditional:
        columns.append(laws.density_u(params, args.t, us))
    columns += [cond_laws[n].density(us) for n in sorted(cond_laws)]
    _write_csv(args, cols, columns, points=args.points, **extra)
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    reports = verify.run_suite(args.suite, args.seed)
    for rep in reports:
        print(rep.line())
    doc = {
        "suite": args.suite,
        "seed": args.seed,
        "git": _git_describe(),
        "sampler": simulate.SAMPLER_ID,
        "reports": [rep.as_dict() for rep in reports],
    }
    with _open_out(args.out) as f:
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

    def add_model_flags(p):
        p.add_argument("--dim", type=int, default=2)
        p.add_argument("--lambda", dest="lam", type=float, default=1.0,
                       help="switch intensity")
        p.add_argument("--c", type=float, default=1.0, help="speed")
        p.add_argument("--t", type=float, default=1.0, help="horizon")
        p.add_argument("--out", default="-", help="output path (default -)")

    p_sim = sub.add_parser("simulate", help="write one CSV row per path")
    add_model_flags(p_sim)
    p_sim.add_argument("--seed", type=int, required=True,
                       help="RNG seed (required: no wall-clock seeding)")
    p_sim.add_argument("--count", type=int, default=1000)
    p_sim.add_argument("--condition-n", dest="condition_n", type=int,
                       default=None, help="fix the switch count")

    p_den = sub.add_parser("density", help="tabulate radius densities")
    add_model_flags(p_den)
    p_den.add_argument("--points", type=int, default=101,
                       help="grid rows over [0, ct]")
    p_den.add_argument("--conditionals", type=_parse_conditionals,
                       default=(), help="comma list of switch counts")

    p_ver = sub.add_parser("verify", help="run a verification suite")
    p_ver.add_argument("--suite", choices=verify.SUITE_NAMES, default="all")
    p_ver.add_argument("--seed", type=int, required=True)
    p_ver.add_argument("--out", default="-", help="report path (default -)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # Looked up per call, so a wrapper set on this module's cmd_* is used.
    command = globals()[f"cmd_{args.command}"]
    try:
        return command(args)
    except ValueError as exc:  # a parameter outside a supported range
        print(f"{args.command}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as exc:  # a size too large to allocate
        print(f"{args.command}: not enough memory: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"{args.command}: I/O error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
