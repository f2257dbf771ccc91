"""CLI rejections that no other test runs (``tools/cli_digests.py`` digests
them too), and the one flat verdict that ``preset_phases`` shares with the
certificate: pass only when the deviation is below ``FLATNESS_TOL``."""

import math

import pytest

from equibasis import families
from equibasis.cli import main
from equibasis.core import FLATNESS_TOL

GRID = ["--from", "0", "--to", "1.5", "--step", "0.5"]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["verify", "--coeffs=a,0;1,0"], "cannot parse coefficient 'a,0'"),
        (["verify", "--coeffs=1,0"], "need at least 2 coefficients"),
        (["verify", "--coeffs=0,0;0,0"], "coefficients must not all be zero"),
        (["verify", "--family", "d3-real"], "--family requires --param-deg"),
        (
            ["curve", "--family", "d3-real", "--from", "10", "--to", "5", "--step", "1"],
            "range end 5.0 is below start 10.0",
        ),
        (
            ["curve", "--interpolate", "--preset", "d=3", *GRID],
            "interpolation range must lie within [0, 1]",
        ),
    ],
)
def test_rejection_exits_2_and_writes_nothing(tmp_path, capsys, argv, message):
    assert main([*argv, "--output", str(tmp_path / "out")]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("deviation", [FLATNESS_TOL, math.nan])
def test_preset_flatness_at_the_tolerance_or_nan_is_an_internal_error(
    monkeypatch, capsys, deviation
):
    monkeypatch.setattr(families, "flatness", lambda a: deviation)
    assert main(["verify", "--preset", "d=3"]) == 4
    assert capsys.readouterr().err.startswith("internal error: preset phases are not flat")
