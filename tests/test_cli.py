"""CLI harness: file formats, determinism, exit codes, round-trips."""

import csv
import hashlib
import json
import math
import os
import subprocess
import sys
import types

import numpy as np
import pytest

import cyclic_motion
from cyclic_motion import cli, verify
from cyclic_motion.cli import main
from cyclic_motion.model import ModelParams
from cyclic_motion.simulate import SAMPLER_ID


def run_cli(*args):
    return main(list(args))


def read_csv(path):
    with open(path) as f:
        headers = {}
        rows = []
        reader = None
        data_lines = []
        for line in f:
            if line.startswith("#"):
                key, _, val = line[1:].strip().partition("=")
                headers[key.strip()] = val
            else:
                data_lines.append(line)
        reader = csv.DictReader(data_lines)
        rows = list(reader)
    return headers, rows


def test_simulate_row_count_and_columns(tmp_path):
    out = tmp_path / "s.csv"
    code = run_cli("simulate", "--dim", "2", "--lambda", "1", "--c", "1",
                   "--t", "1", "--count", "1000", "--seed", "42",
                   "--out", str(out))
    assert code == 0
    headers, rows = read_csv(out)
    assert len(rows) == 1000
    assert list(rows[0]) == ["replication", "n_events", "u", "stratum",
                             "x1", "x2", "final_direction"]
    assert headers["seed"] == "42"
    assert headers["dim"] == "2"
    assert headers["sampler"] == SAMPLER_ID
    # u column equals |x1| + |x2| row by row
    for row in rows[:50]:
        want = abs(float(row["x1"])) + abs(float(row["x2"]))
        assert float(row["u"]) == pytest.approx(want, abs=1e-12)


def test_simulate_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ("simulate", "--dim", "3", "--count", "500", "--seed", "9")
    assert run_cli(*args, "--out", str(a)) == 0
    assert run_cli(*args, "--out", str(b)) == 0
    assert a.read_bytes() == b.read_bytes()


def test_simulate_condition_n(tmp_path):
    out = tmp_path / "c.csv"
    assert run_cli("simulate", "--dim", "2", "--count", "200", "--seed",
                   "7", "--condition-n", "2", "--out", str(out)) == 0
    _, rows = read_csv(out)
    assert {row["n_events"] for row in rows} == {"2"}


def test_simulate_round_trip_values(tmp_path):
    from cyclic_motion.simulate import simulate_ensemble
    out = tmp_path / "s.csv"
    run_cli("simulate", "--dim", "2", "--count", "64", "--seed", "3",
            "--out", str(out))
    _, rows = read_csv(out)
    s = simulate_ensemble(ModelParams(1.0, 1.0, 2), 1.0, 64, 3)
    for i, row in enumerate(rows):
        assert float(row["u"]) == s.u[i]  # repr round-trip is exact
        assert int(row["n_events"]) == s.n_events[i]
        assert float(row["x1"]) == s.positions[i, 0]


def test_density_table_and_values(tmp_path):
    out = tmp_path / "d.csv"
    code = run_cli("density", "--dim", "2", "--lambda", "1", "--c", "1",
                   "--t", "1", "--points", "101", "--conditionals", "2,3",
                   "--out", str(out))
    assert code == 0
    headers, rows = read_csv(out)
    assert len(rows) == 101
    assert list(rows[0]) == ["u", "p_unconditional", "p_cond_n2",
                             "p_cond_n3"]
    assert float(rows[0]["p_unconditional"]) == pytest.approx(
        0.2578491922439321, rel=1e-12)
    # conditional n=2 column is the constant 1/(ct)
    assert {row["p_cond_n2"] for row in rows} == {"1.0"}
    # header carries the singular-mass summary
    assert float(headers["singular_mass_total"]) == pytest.approx(
        2 * math.exp(-1.0), rel=1e-12)
    assert float(headers["ac_mass"]) == pytest.approx(
        1 - 2 * math.exp(-1.0), rel=1e-12)
    # trapezoid of the density column approximates the a.c. mass
    u = np.array([float(r["u"]) for r in rows])
    p = np.array([float(r["p_unconditional"]) for r in rows])
    assert np.trapezoid(p, u) == pytest.approx(1 - 2 * math.exp(-1.0),
                                               abs=1e-4)


def test_density_grid_endpoints_and_edge_value(tmp_path):
    out = tmp_path / "d.csv"
    run_cli("density", "--dim", "3", "--points", "11", "--out", str(out))
    _, rows = read_csv(out)
    assert float(rows[0]["u"]) == 0.0
    assert float(rows[-1]["u"]) == 1.0
    assert float(rows[-1]["p_unconditional"]) == pytest.approx(
        math.exp(-1.0) / 3.0, rel=1e-12)


def test_density_dim1_conditionals_only(tmp_path):
    out = tmp_path / "d1.csv"
    code = run_cli("density", "--dim", "1", "--points", "5",
                   "--conditionals", "1,2", "--out", str(out))
    assert code == 0
    _, rows = read_csv(out)
    assert list(rows[0]) == ["u", "p_cond_n1", "p_cond_n2"]
    code = run_cli("density", "--dim", "1", "--out", str(out))
    assert code == 1


def test_density_many_switch_conditional(tmp_path):
    # the n=400 amplitude 400!/(199! 200! 2^399) no longer overflows
    out = tmp_path / "d.csv"
    assert run_cli("density", "--dim", "2", "--points", "21",
                   "--conditionals", "400", "--out", str(out)) == 0
    _, rows = read_csv(out)
    vals = [float(row["p_cond_n400"]) for row in rows]
    assert all(math.isfinite(v) for v in vals)
    assert vals[0] > vals[1] > vals[10] > 0.0 == vals[-1]


def test_density_dim4_rejected(tmp_path):
    assert run_cli("density", "--dim", "4",
                   "--out", str(tmp_path / "x.csv")) == 1


def test_density_conditional_below_dim_rejected(tmp_path, capsys):
    assert run_cli("density", "--dim", "3", "--conditionals", "2",
                   "--out", str(tmp_path / "x.csv")) == 1
    assert capsys.readouterr().err.startswith("density: N=2 < dim=3")
    assert not (tmp_path / "x.csv").exists()


def test_bad_arguments_exit_1(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli("simulate", "--unknown-flag", "1")
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        run_cli("simulate")  # missing required --seed
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        run_cli()  # missing subcommand
    assert exc.value.code == 1
    capsys.readouterr()


def test_invalid_params_exit_1(tmp_path):
    assert run_cli("simulate", "--dim", "9", "--seed", "1",
                   "--out", str(tmp_path / "x.csv")) == 1
    assert run_cli("simulate", "--c", "0", "--seed", "1",
                   "--out", str(tmp_path / "x.csv")) == 1
    assert run_cli("simulate", "--t", "-1", "--seed", "1",
                   "--out", str(tmp_path / "x.csv")) == 1
    assert run_cli("simulate", "--count", "0", "--seed", "1",
                   "--out", str(tmp_path / "x.csv")) == 1


@pytest.mark.parametrize("command", ["simulate", "density"])
@pytest.mark.parametrize("horizon", ["nan", "inf"])
def test_non_finite_horizon_exit_1(tmp_path, capsys, command, horizon):
    seed = ("--seed", "1") if command == "simulate" else ()
    assert run_cli(command, "--t", horizon, *seed,
                   "--out", str(tmp_path / "x.csv")) == 1
    assert "finite" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


def test_density_at_vanishing_lambda_t(tmp_path):
    # lam*t underflows to 0: P(N=0) = 1 and nothing is left for the
    # a.c. part; the moments are those of the point mass at ct
    out = tmp_path / "d.csv"
    assert run_cli("density", "--dim", "2", "--lambda", "1e-300",
                   "--t", "1e-300", "--points", "3", "--out", str(out)) == 0
    headers, rows = read_csv(out)
    assert headers["ac_mass"] == "0.0"
    assert headers["singular_mass_vertex"] == "1.0"
    assert float(headers["mean_u"]) == 1e-300
    assert len(rows) == 3
    assert run_cli("density", "--dim", "2", "--lambda", "1e-16",
                   "--points", "3", "--out", str(out)) == 0
    headers, _ = read_csv(out)
    assert float(headers["mean_u"]) == pytest.approx(1.0, rel=1e-15)
    assert float(headers["moment2_u"]) == pytest.approx(1.0, rel=1e-15)


@pytest.mark.parametrize("command", ["simulate", "density"])
def test_lambda_t_above_the_supported_range_exit_1(tmp_path, capsys, command):
    size = (("--count", "1", "--seed", "1") if command == "simulate"
            else ("--points", "3"))
    assert run_cli(command, "--lambda", "1e9", *size,
                   "--out", str(tmp_path / "x.csv")) == 1
    assert "above the supported" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


# Commands whose speed c or reach c*t lies outside the supported scales
# (each wrote NaN or inf, or failed with "math domain error"), and the
# same commands with that scale on its bound.
_SCALE_PROBES = [
    (("simulate", "--c", "1e200", "--t", "1e200", "--lambda", "1e-199",
      "--count", "5", "--seed", "1"),
     ("simulate", "--c", "1e30", "--t", "1", "--lambda", "1e-30",
      "--count", "5", "--seed", "1")),
    (("simulate", "--c", "1e200", "--t", "1e200", "--lambda", "1e-250",
      "--dim", "3", "--count", "5", "--seed", "1"),
     ("simulate", "--c", "1", "--t", "1e30", "--lambda", "1e-30",
      "--dim", "3", "--count", "5", "--seed", "1")),
    (("density", "--c", "1e-200", "--t", "1e200", "--lambda", "1e-200",
      "--points", "3"),
     ("density", "--c", "1e-30", "--t", "1e30", "--lambda", "1e-30",
      "--points", "3")),
    (("density", "--c", "1e160", "--t", "1", "--lambda", "1e-160", "--dim",
      "3", "--conditionals", "3"),
     ("density", "--c", "1e30", "--t", "1", "--lambda", "1e-30", "--dim",
      "3", "--conditionals", "3")),
    (("density", "--c", "1e200", "--t", "1e200", "--lambda", "1e-199"),
     ("density", "--c", "1e30", "--t", "1", "--lambda", "1e-29")),
]


@pytest.mark.parametrize("outside,inside", _SCALE_PROBES)
def test_scales_outside_the_supported_range_exit_1(tmp_path, capsys,
                                                   outside, inside):
    out = tmp_path / "x.csv"
    assert run_cli(*outside, "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "outside the supported scales" in err
    assert not out.exists()
    assert run_cli(*inside, "--out", str(out)) == 0
    headers, rows = read_csv(out)
    numbers = [v for k, v in headers.items()
               if k.startswith(("singular", "ac_", "mean", "moment"))]
    numbers += [v for row in rows for k, v in row.items() if k != "stratum"]
    assert rows and all(math.isfinite(float(v)) for v in numbers)


@pytest.mark.parametrize("n", ["9223372036854775807", "99999999999999999999"])
def test_condition_n_above_the_supported_range_exit_1(tmp_path, capsys, n):
    # n + 1 would overflow int64 and turn every output into NaN
    assert run_cli("simulate", "--condition-n", n, "--count", "1",
                   "--seed", "1", "--out", str(tmp_path / "x.csv")) == 1
    assert "above the supported" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


def test_io_error_exit_2(tmp_path):
    assert run_cli("simulate", "--seed", "1", "--count", "10",
                   "--out", str(tmp_path / "no_dir" / "x.csv")) == 2


def test_verify_report_json_and_exit_codes(tmp_path, capsys):
    out = tmp_path / "rep.json"
    # the limits suite passes on this build
    code = run_cli("verify", "--suite", "limits", "--seed", "7",
                   "--out", str(out))
    capsys.readouterr()
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["suite"] == "limits"
    assert doc["seed"] == 7
    assert doc["sampler"] == SAMPLER_ID
    names = [r["name"] for r in doc["reports"]]
    assert "heat_limit_dim2" in names and "heat_limit_dim3" in names
    assert all(r["pass"] for r in doc["reports"])
    for r in doc["reports"]:
        assert set(r) >= {"name", "statistic", "p_value", "tolerance",
                          "pass"}


def test_verify_blocking_failure_exit_3(tmp_path, capsys):
    out = tmp_path / "rep.json"
    # the moments suite contains Monte-Carlo mean comparisons that fail
    # against the closed-form values on this build (documented): the
    # harness must exit 3 and name the failing tests
    code = run_cli("verify", "--suite", "moments", "--seed", "7",
                   "--out", str(out))
    captured = capsys.readouterr()
    assert code == 3
    assert "verification failure" in captured.err
    assert "mean_vs_mc_2d" in captured.err
    doc = json.loads(out.read_text())
    failing = [r for r in doc["reports"] if not r["pass"]]
    assert failing
    assert all(r["blocking"] for r in failing)


def test_verify_conjecture_never_blocks(tmp_path, capsys):
    out = tmp_path / "rep.json"
    code = run_cli("verify", "--suite", "conjecture", "--seed", "7",
                   "--out", str(out))
    capsys.readouterr()
    assert code == 0
    doc = json.loads(out.read_text())
    assert all(not r["blocking"] for r in doc["reports"])
    names = {r["name"] for r in doc["reports"]}
    assert names == {"u3_eq_u4_n4", "u4_eq_u5_n5"}


def test_verify_unknown_suite_exit_1(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli("verify", "--suite", "nope", "--seed", "1")
    assert exc.value.code == 1
    capsys.readouterr()


def test_bad_conditionals_exit_1(tmp_path, capsys):
    out = tmp_path / "x.csv"
    with pytest.raises(SystemExit) as exc:
        run_cli("density", "--conditionals", "2,x", "--out", str(out))
    assert exc.value.code == 1
    assert "expects comma-separated integers" in capsys.readouterr().err
    assert not out.exists()


def test_density_takes_no_seed(tmp_path, capsys):
    # density draws nothing: a seed would change no byte of its output
    out = tmp_path / "x.csv"
    with pytest.raises(SystemExit) as exc:
        run_cli("density", "--seed", "1", "--out", str(out))
    assert exc.value.code == 1
    assert "--seed" in capsys.readouterr().err
    assert not out.exists()


def test_empty_conditionals(tmp_path):
    out = tmp_path / "d.csv"
    assert run_cli("density", "--dim", "2", "--points", "3",
                   "--conditionals", "", "--out", str(out)) == 0
    _, rows = read_csv(out)
    assert list(rows[0]) == ["u", "p_unconditional"]
    out.unlink()
    assert run_cli("density", "--dim", "1", "--points", "3",
                   "--conditionals", "", "--out", str(out)) == 1
    assert not out.exists()


def test_unknown_suite_raises_naming_the_suites():
    # the CLI stops earlier, at argparse's choices
    with pytest.raises(ValueError, match="unknown suite 'nope'.*limits"):
        verify.run_suite("nope", 1)


def test_git_describe_without_git(monkeypatch):
    def no_git(*args, **kwargs):
        raise OSError("no git executable")
    monkeypatch.setattr(cli.subprocess, "run", no_git)
    assert cli._git_describe() == "unknown"


def test_unallocatable_size_exit_1(tmp_path, capsys):
    # 10**15 grid points take 8 PB per column: the allocation fails at
    # once, before any memory is touched
    out = tmp_path / "x.csv"
    assert run_cli("density", "--points", str(10 ** 15),
                   "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert err.startswith("density: not enough memory: ")
    assert len(err.splitlines()) == 1
    assert not out.exists()


def _sha256_without_git(data: bytes) -> str:
    """sha256 of a CSV output with its ``# git=`` line removed."""
    lines = data.splitlines(keepends=True)
    return hashlib.sha256(
        b"".join(ln for ln in lines if not ln.startswith(b"# git="))
    ).hexdigest()


# Each simulate output spans more than two of the writer's chunks and
# ends in a partial one; dim 3 at lambda 0.5 holds shell rows and 0.0
# coordinates, and density at lambda*t 1000 a mostly underflowed column.
CSV_PINS = {
    "simulate_dim2": (
        ["simulate", "--dim", "2", "--count", "10000", "--seed", "7"],
        "20132916d200e95d15d9182818d50a9026a1aed3ea40567e67ba9d405ed8aeb8"),
    "simulate_dim3_lambda0.5": (
        ["simulate", "--dim", "3", "--lambda", "0.5", "--count", "10000",
         "--seed", "7"],
        "d5ab7a2f516991ce381ba797a97ddf00e89220d35bd51471299104992971bb6e"),
    "simulate_dim8": (
        ["simulate", "--dim", "8", "--count", "10000", "--seed", "7"],
        "6d1cb87eee2d621b4b5235f627d8d1e00108b1263251f6c4bdb999f85fe2c013"),
    "simulate_dim3_n6": (
        ["simulate", "--dim", "3", "--condition-n", "6", "--count", "10000",
         "--seed", "7"],
        "9a01a20afcf968650f71f7397f6f05cdfb1a5ef37ade54747d173f5e968e8fff"),
    "density_dim1": (
        ["density", "--dim", "1", "--conditionals", "1,4", "--points",
         "10001"],
        "487b026cbd6b029bbe371714d4ffbf8cf39b40ed97754d971119a4d999393723"),
    "density_dim2_lambda1000": (
        ["density", "--dim", "2", "--lambda", "1000", "--points", "10001"],
        "cd44f30e4fc2082ea9ce268b1c5da1a470ef7ad6ffc8eb31f938bf7e1cfe3c3d"),
    "density_dim3": (
        ["density", "--dim", "3", "--conditionals", "3,4", "--points",
         "10001"],
        "e30d6a9422560092c4a9ac4eb90f16b16a56a2291ee20d67b5f9e50d81d5aac8"),
}


@pytest.mark.parametrize("name", CSV_PINS)
def test_csv_bytes_are_pinned(tmp_path, name):
    argv, digest = CSV_PINS[name]
    out = tmp_path / "x.csv"
    assert run_cli(*argv, "--out", str(out)) == 0
    assert _sha256_without_git(out.read_bytes()) == digest


@pytest.mark.parametrize("name", ["simulate_dim3_n6", "density_dim3"])
def test_stdout_bytes_equal_the_file(tmp_path, capsys, name):
    argv, _ = CSV_PINS[name]
    out = tmp_path / "x.csv"
    assert run_cli(*argv, "--out", str(out)) == 0
    capsys.readouterr()
    assert run_cli(*argv, "--out", "-") == 0
    assert capsys.readouterr().out.encode("utf-8") == out.read_bytes()


def test_csv_rows_format_each_float_by_repr(tmp_path):
    # no pinned output holds these values; str of each float must
    # equal its repr, so the file round-trips bit-exactly
    values = np.array([-0.0, 5e-324, 1e-05, 0.1, 1e16, 2.0 ** 53 + 2,
                       -math.inf, math.nan])
    out = tmp_path / "x.csv"
    args = types.SimpleNamespace(c=1.0, lam=1.0, dim=2, t=1.0, out=str(out))
    cli._write_csv(args, ["i", "x"], [np.arange(8), values])
    rows = out.read_text().splitlines()[7:]
    assert rows == [f"{i},{v!r}" for i, v in enumerate(values.tolist())]


def test_density_stdout(capsys):
    assert run_cli("density", "--dim", "2", "--points", "3") == 0
    captured = capsys.readouterr()
    lines = [ln for ln in captured.out.splitlines()
             if ln and not ln.startswith("#")]
    assert lines[0].startswith("u,p_unconditional")
    assert len(lines) == 4


def _fresh_modules(statements: str) -> set[str]:
    """Modules loaded by a fresh interpreter that imports the CLI and
    runs ``statements``: this test process already holds scipy.integrate
    (pytest's IntegrationWarning filter imports it)."""
    src = os.path.dirname(os.path.dirname(cyclic_motion.__file__))
    code = (f"import sys; sys.path.insert(0, {src!r}); "
            f"import cyclic_motion.cli; {statements}; "
            "print(' '.join(sorted(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120, check=True)
    return set(proc.stdout.splitlines()[-1].split())


def test_cli_import_loads_no_heavy_scipy():
    loaded = _fresh_modules("pass")
    assert "scipy.special" in loaded
    for heavy in ("scipy.stats", "scipy.integrate", "scipy.optimize",
                  "scipy.linalg", "scipy.sparse"):
        assert heavy not in loaded


def test_quadrature_suites_load_no_scipy_integrate():
    # the normalization, moment and conditional-mean oracles run a fixed
    # Gauss-Legendre rule, not scipy's adaptive quad
    loaded = _fresh_modules(
        "[cyclic_motion.cli.main(['verify', '--suite', s, '--seed', '3', "
        "'--out', '-']) for s in ('distributions', 'moments')]")
    for heavy in ("scipy.integrate", "scipy.optimize", "scipy.sparse"):
        assert heavy not in loaded


def test_cli_import_starts_no_threads():
    # simulate_ensemble starts its helper threads inside a call, and
    # only for ensembles that take Marsaglia-Tsang attempts.
    src = os.path.dirname(os.path.dirname(cyclic_motion.__file__))
    code = (f"import sys; sys.path.insert(0, {src!r}); "
            "import threading, cyclic_motion.cli; "
            "print(threading.active_count())")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120, check=True)
    assert proc.stdout.split() == ["1"]
