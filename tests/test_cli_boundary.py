"""CLI boundary: internal errors, non-finite numeric flags, extreme --coeffs."""

import json

import pytest

from equibasis import basis
from equibasis.cli import main


def test_internal_invariant_failure_exits_4(monkeypatch, capsys):
    honest = basis._support
    # labels 1 and 2 both land on diagonal 1
    monkeypatch.setattr(basis, "_support", lambda d, m, n, i: honest(d, m, min(n, 1), i))
    assert main(["verify", "--preset", "d=3"]) == 4
    err = capsys.readouterr().err
    assert err.startswith("internal error:") and "diagonal" in err


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["construct", "--family", "d3-real", "--param-deg", "nan"], "--param-deg"),
        (["verify", "--family", "d4-real", "--param-deg=-inf"], "--param-deg"),
        (["curve", "--family", "d3-real", "--from", "nan", "--to", "10", "--step", "1"], "--from"),
        (["curve", "--family", "d3-real", "--from", "0", "--to", "inf", "--step", "1"], "--to"),
        (["curve", "--family", "d3-real", "--from", "0", "--to", "10", "--step", "nan"], "--step"),
        (["curve", "--family", "d3-real", "--from", "0", "--to", "10", "--step", "inf"], "--step"),
        (["curve", "--preset", "d=3", "--interpolate", "--from", "0", "--to", "1",
          "--step", "inf"], "--step"),
        (["search", "--d", "4", "--tol", "nan"], "--tol"),
    ],
)
def test_non_finite_flag_is_a_boundary_error(tmp_path, capsys, argv, flag):
    out = tmp_path / "out"
    assert main(argv + ["--output", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {flag} must be a finite number")
    assert not out.exists()


@pytest.mark.parametrize("coeffs", ["1e308,0;1e308,0", "1e-200,0;1e-200,0"])
def test_extreme_coeffs_normalise_like_unit_ones(capsys, coeffs):
    assert main(["verify", "--coeffs=1,0;1,0"]) == 1
    expected = capsys.readouterr()
    assert main(["verify", f"--coeffs={coeffs}"]) == 1
    got = capsys.readouterr()
    assert got.out == expected.out and got.err == ""
    assert json.loads(got.out)["entanglement"] == 1.0
