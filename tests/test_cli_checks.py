"""The CLI's own checks: bad input exits 1 before any work or output."""

import pytest

from cyclic_motion import cli, simulate, verify


def test_verify_max_dim_is_checked_before_any_criterion(monkeypatch,
                                                        tmp_path, capsys):
    def no_ensemble(*args, **kwargs):
        raise AssertionError("a criterion ran")

    monkeypatch.setattr(simulate, "simulate_ensemble", no_ensemble)
    out = tmp_path / "rep.json"
    assert cli.main(["verify", "--suite", "all", "--seed", "7",
                     "--max-dim", "9", "--out", str(out)]) == 1
    assert "max-dim must be between 4 and 8" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("max_dim", [3, 9])
def test_run_suite_rejects_max_dim_outside_4_to_8(max_dim):
    with pytest.raises(ValueError, match="max-dim"):
        verify.run_suite("limits", 7, max_dim=max_dim)


def test_density_zero_points_exit_1(tmp_path, capsys):
    out = tmp_path / "d.csv"
    assert cli.main(["density", "--points", "0", "--out", str(out)]) == 1
    assert "density: points must be >= 1" in capsys.readouterr().err
    assert not out.exists()


def test_equality_conjecture_direct_call_runs_pairs_below_max_dim():
    # run_suite holds max_dim to 4..8; a direct call runs d = 3..max_dim-1
    reports = verify.equality_conjecture(seed=7, max_dim=4)
    assert [r.name for r in reports] == ["u3_eq_u4_n4"]
    assert verify.equality_conjecture(seed=7, max_dim=3) == []
