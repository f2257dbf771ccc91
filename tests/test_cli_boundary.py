"""CLI boundary: internal errors, non-finite numeric flags, grid and basis sizes, extreme --coeffs."""

import json
import math

import pytest

from equibasis import basis, cli, core, families
from equibasis.cli import MAX_CONSTRUCT_ROWS, MAX_CURVE_POINTS, main


def test_internal_invariant_failure_exits_4(monkeypatch, capsys):
    honest = basis._support
    # labels 1 and 2 both land on diagonal 1
    monkeypatch.setattr(basis, "_support", lambda d, m, n: honest(d, m, min(n, 1)))
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


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--preset", "d=3"],
        ["curve", "--preset", "d=3", "--interpolate", "--from", "0", "--to", "1", "--step", "0.5"],
    ],
)
def test_corrupt_preset_is_an_internal_error(monkeypatch, tmp_path, capsys, argv):
    corrupt = dict(families._PRESET_ANGLES)
    corrupt[(3, 0)] = (0.0, 0.3, 0.0)  # synthesizes to moduli far from flat
    monkeypatch.setattr(families, "_PRESET_ANGLES", corrupt)
    out = tmp_path / "out"
    assert main(argv + ["--output", str(out)]) == 4
    assert capsys.readouterr().err.startswith("internal error: preset phases are not flat")
    assert not out.exists()


def test_unknown_preset_stays_a_boundary_error(capsys):
    assert main(["verify", "--preset", "d=9"]) == 2
    assert capsys.readouterr().err.startswith("error: no preset for d=9")


@pytest.mark.parametrize("e", [-1e-9, 1.0 + 1e-9, math.nan])
def test_entropy_out_of_range_is_an_internal_error(e):
    with pytest.raises(RuntimeError, match="outside"):
        core._clamp_entropy(e)


@pytest.mark.parametrize(
    "source, start, stop, step",
    [
        (["--family", "d3-real"], "0", "360", "1e-310"),  # quotient overflows to inf
        (["--family", "d3-real"], "0", "360", "1e-300"),
        (["--family", "d4-complex"], "0", "360", "1e-12"),
        (["--family", "d3-real"], "0", "1", repr(1 / MAX_CURVE_POINTS)),  # one point too many
        (["--preset", "d=3", "--interpolate"], "0", "1", "1e-300"),
    ],
)
def test_oversized_curve_grid_is_refused(tmp_path, capsys, source, start, stop, step):
    out = tmp_path / "curve.csv"
    argv = ["curve", *source, "--from", start, "--to", stop, "--step", step]
    assert main(argv + ["--output", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: --step {float(step)} gives more than {MAX_CURVE_POINTS}")
    assert not out.exists()


def _refuse_synthesis(monkeypatch):
    def fail(theta):
        raise AssertionError(f"synthesized {theta.d} phases")

    monkeypatch.setattr(cli, "synthesize_coefficients", fail)


@pytest.mark.parametrize("d", [257, 1000])
@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_oversized_construct_is_refused_before_synthesis(monkeypatch, tmp_path, capsys, d, fmt):
    _refuse_synthesis(monkeypatch)
    out = tmp_path / f"basis.{fmt}"
    theta = ",".join(["0.5"] * d)
    assert main(["construct", "--theta", theta, "--format", fmt, "--output", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: --theta has {d} phases: the basis would have {d**3} rows")
    assert str(MAX_CONSTRUCT_ROWS) in err
    assert not out.exists()


def test_construct_row_limit_is_inclusive(monkeypatch, capsys):
    monkeypatch.setattr(cli, "MAX_CONSTRUCT_ROWS", 4**3)
    assert main(["construct", "--theta", "0,0,0,pi", "--format", "csv"]) == 0
    assert capsys.readouterr().out.count("\n") == 4 + 4**3  # header lines, rows
    _refuse_synthesis(monkeypatch)
    assert main(["construct", "--theta", "0,0,0,0,pi", "--format", "csv"]) == 2
    assert "would have 125 rows, more than 64" in capsys.readouterr().err


def test_verify_has_no_construct_row_limit(monkeypatch, capsys):
    monkeypatch.setattr(cli, "MAX_CONSTRUCT_ROWS", 1)
    assert main(["verify", "--theta", "0,0,0,pi"]) == 0
