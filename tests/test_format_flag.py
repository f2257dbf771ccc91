"""`--format`: a subcommand given a format it does not write exits 2 before
any work and writes nothing; the format it writes is accepted."""

import json

import pytest

from equibasis import cli
from equibasis.cli import main

GRID = ["--from", "0", "--to", "1", "--step", "1"]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["verify", "--preset", "d=3", "--format", "csv"], "verify output is JSON only"),
        (["search", "--d", "4", "--format", "csv"], "search output is JSON only"),
        (["curve", "--family", "d3-real", *GRID, "--format", "json"], "curve output is CSV only"),
    ],
)
def test_unwritten_format_is_refused_before_any_work(argv, message, tmp_path, monkeypatch, capsys):
    def fail(*args, **kwargs):
        raise AssertionError("work started")

    for name in ("read_source", "alternating_projection_search"):
        monkeypatch.setattr(cli, name, fail)
    assert main([*argv, "--output", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert list(tmp_path.iterdir()) == []


def test_verify_accepts_json(tmp_path):
    out = tmp_path / "v.json"
    assert main(["verify", "--preset", "d=3", "--format", "json", "--output", str(out)]) == 0
    assert json.loads(out.read_text())["maximal"] is True
