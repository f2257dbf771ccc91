"""The one coefficient-source rule of construct, verify and curve, and the
manifest descriptions of each source."""

import json
import math
import re

import pytest

from equibasis import cli
from equibasis.cli import build_parser, main

GRID = ["--from", "0", "--to", "1", "--step", "0.5"]
PRESET = ["--preset", "d=3"]
THETA0 = ["--theta0", "0,pi/2"]
FAMILY = ["--family", "d3-real"]

CURVE_FLAGS = "(--theta0 | --family | --preset)"


def run(argv, capsys):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def manifest(path):
    return json.loads(path.with_suffix(".manifest.json").read_text())


# --- two sources ------------------------------------------------------------

@pytest.mark.parametrize("first, second", [(PRESET, THETA0), (FAMILY, PRESET), (FAMILY, THETA0)])
@pytest.mark.parametrize("mode", [[], ["--interpolate"]])
@pytest.mark.parametrize("output", [[], ["--output", "out.csv"]])
def test_curve_refuses_two_sources(first, second, mode, output, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code, out, err = run(["curve", *mode, *first, *second, *GRID, *output], capsys)
    assert code == 2
    assert out == ""
    assert err == f"error: exactly one coefficient source required {CURVE_FLAGS}\n"
    assert first[0] in err and second[0] in err
    assert list(tmp_path.iterdir()) == []  # neither curve.csv, out.csv nor a manifest


# --- no source --------------------------------------------------------------

@pytest.mark.parametrize(
    "argv, flags",
    [
        (["construct", "--d", "4"], "(--theta | --family)"),
        (["verify"], "(--theta | --family | --preset | --coeffs)"),
        (["curve", *GRID], CURVE_FLAGS),
        (["curve", "--interpolate", *GRID], CURVE_FLAGS),
    ],
)
def test_no_source_lists_the_subcommands_flags(argv, flags, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code, out, err = run(argv, capsys)
    assert (code, out) == (2, "")
    assert err == f"error: exactly one coefficient source required {flags}\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["construct", "verify", "curve"])
def test_every_listed_source_flag_is_accepted(command, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    extra = GRID if command == "curve" else []
    code, _, err = run([command, *extra], capsys)
    assert code == 2
    listed = re.findall(r"--\w+", err)
    assert listed
    for flag in listed:
        code, _, err = run([command, flag, "x", *extra], capsys)
        assert "unrecognized arguments" not in err, (command, flag)


# --- the reader keeps each curve error ---------------------------------------

@pytest.mark.parametrize(
    "argv, message",
    [
        (["--interpolate", "--family", "nope"],
         "--interpolate works with --preset or --theta0, not --family"),
        (["--preset", "d=7"], "curve needs --family, or --interpolate with a seed"),
        (["--theta0", "0,pi/0"], "curve needs --family, or --interpolate with a seed"),
        (["--interpolate", "--theta0", "0,pi/0"], "angle 'pi/0' divides by zero"),
        (["--family", "nope"], "unknown family 'nope'; choose from: "
         "d3-real, d3-complex, d4-real, d4-complex"),
    ],
)
def test_curve_mode_is_checked_before_the_value(argv, message, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code, out, err = run(["curve", *argv, *GRID], capsys)
    assert (code, out, err) == (2, "", f"error: {message}\n")


# --- manifests --------------------------------------------------------------

@pytest.mark.parametrize(
    "source, config",
    [
        (["--interpolate", *PRESET], {"preset": {"d": 3, "variant": 0}, "interpolate": True}),
        (["--interpolate", *THETA0], {"theta0_rad": [0.0, math.pi / 2], "interpolate": True}),
        (FAMILY, {"family": "d3-real"}),
    ],
)
def test_curve_manifest_config(source, config, tmp_path, capsys):
    out = tmp_path / "c.csv"
    assert main(["curve", *source, *GRID, "--output", str(out)]) == 0
    got = manifest(out)["config"]
    expected = dict(config, start=0.0, stop=1.0, step=0.5)
    assert got == expected
    assert list(got) == list(expected)


@pytest.mark.parametrize("fmt, written", [([], "json"), (["--format", "json"], "json"),
                                          (["--format", "csv"], "csv")])
def test_construct_manifest_records_the_written_format(fmt, written, tmp_path, capsys):
    out = tmp_path / "basis.out"
    assert main(["construct", "--theta", "0,0,pi", *fmt, "--output", str(out)]) == 0
    got = manifest(out)["config"]
    assert got["format"] == written
    assert list(got) == ["source", "d", "format"]
    if written == "json":
        json.loads(out.read_text())


@pytest.mark.parametrize(
    "argv, desc",
    [
        (["construct", "--theta", "0,pi"], {"theta_rad": [0.0, math.pi]}),
        (["construct", *FAMILY, "--param-deg", "30"], {"family": "d3-real", "param_deg": 30.0}),
        (["verify", "--preset", "d=4,v=1"], {"preset": {"d": 4, "variant": 1}}),
        (["verify", "--coeffs=1,0;0,1"], {"coeffs": "1,0;0,1"}),
    ],
)
def test_resolve_source_descriptions(argv, desc):
    _, got = cli.resolve_source(build_parser().parse_args(argv))
    assert got == desc
    assert list(got) == list(desc)
