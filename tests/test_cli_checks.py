"""The CLI's own checks: bad input exits 1 before any work or output."""

import pytest

from cyclic_motion import cli, simulate


def test_verify_max_dim_is_checked_before_any_criterion(monkeypatch,
                                                        tmp_path, capsys):
    # the conjecture pairs are fixed: --max-dim is an unknown argument
    def no_ensemble(*args, **kwargs):
        raise AssertionError("a criterion ran")

    monkeypatch.setattr(simulate, "simulate_ensemble", no_ensemble)
    out = tmp_path / "rep.json"
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--suite", "all", "--seed", "7",
                  "--max-dim", "5", "--out", str(out)])
    assert exc.value.code == 1
    assert "unrecognized arguments: --max-dim 5" in capsys.readouterr().err
    assert not out.exists()


def test_density_zero_points_exit_1(tmp_path, capsys):
    out = tmp_path / "d.csv"
    assert cli.main(["density", "--points", "0", "--out", str(out)]) == 1
    assert "density: points must be >= 1" in capsys.readouterr().err
    assert not out.exists()
