"""Every output's manifest is written before its data (``cli.save``).

The manifest beside a data file must name the last run that wrote to it,
also a run that failed or was killed part way through its data; an output
that exists and is not a regular file (a FIFO, a directory) gets no
manifest.
"""

import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from equibasis import cli
from equibasis.cli import CURVE_CHUNK, main, make_grid

CURVE_FINE = ["curve", "--family", "d4-real", "--from", "0", "--to", "360", "--step", "0.25"]
CURVE_COARSE = ["curve", "--family", "d4-real", "--from", "0", "--to", "360", "--step", "0.5"]

SUBCOMMANDS = pytest.mark.parametrize(
    "argv, name",
    [
        (["construct", "--family", "d3-real", "--param-deg", "30"], "out.json"),
        (CURVE_COARSE, "out.csv"),
        (["verify", "--preset", "d=3"], "out.json"),
        (["search", "--d", "4", "--seed", "0"], "out.json"),
    ],
    ids=["construct", "curve", "verify", "search"],
)

# Runs `curve` with the arguments given and ends the process, without
# flushing or cutting anything, when the third grid chunk is evaluated.
KILLED_ON_THE_THIRD_CHUNK = """
import os, sys
from equibasis import cli

honest, calls = cli.entanglement, []

def dying(a):
    calls.append(len(a))
    if len(calls) == 3:
        os._exit(9)
    return honest(a)

cli.entanglement = dying
cli.main(sys.argv[1:])
"""


def manifest_of(out: Path) -> dict:
    return json.loads(out.with_suffix(".manifest.json").read_text(encoding="utf-8"))


def grid_rows(config: dict) -> int:
    """Rows a complete `curve` file of this manifest config holds."""
    return make_grid(config["start"], config["stop"], config["step"]).size


def test_a_run_failing_mid_grid_leaves_its_own_manifest(tmp_path, monkeypatch):
    out = tmp_path / "out.csv"
    assert main(CURVE_FINE + ["--output", str(out), "--quiet"]) == 0
    honest, calls = cli.entanglement, []

    def failing_on_the_second_chunk(a):
        calls.append(len(a))
        if len(calls) == 2:
            raise RuntimeError("entropy outside [0, 1]")
        return honest(a)

    monkeypatch.setattr(cli, "entanglement", failing_on_the_second_chunk)
    assert main(CURVE_COARSE + ["--output", str(out), "--quiet"]) == 4
    lines = out.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 1 + CURVE_CHUNK
    assert [line.split(",")[0] for line in lines[1:4]] == ["0", "0.5", "1"]
    config = manifest_of(out)["config"]
    assert config["step"] == 0.5
    assert grid_rows(config) != len(lines) - 1  # the short file shows against its manifest


def test_a_killed_run_leaves_its_own_manifest_beside_its_head_and_an_old_tail(tmp_path):
    out = tmp_path / "out.csv"
    assert main(CURVE_FINE + ["--output", str(out), "--quiet"]) == 0
    old_last = out.read_text(encoding="utf-8").splitlines()[-1]
    env = dict(os.environ)
    src = str(Path(cli.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    killed = subprocess.run(
        [sys.executable, "-c", KILLED_ON_THE_THIRD_CHUNK,
         *CURVE_COARSE, "--output", "out.csv", "--quiet"],
        cwd=tmp_path, env=env, capture_output=True, timeout=120,
    )
    assert killed.returncode == 9, killed.stderr
    lines = out.read_text(encoding="utf-8").splitlines()
    assert [line.split(",")[0] for line in lines[:4]] == ["param_deg", "0", "0.5", "1"]
    assert lines[-1] == old_last  # the old run's tail, so the file still parses
    config = manifest_of(out)["config"]
    assert config["step"] == 0.5
    assert grid_rows(config) != len(lines) - 1  # the mix shows against the manifest


@SUBCOMMANDS
def test_the_manifest_is_opened_before_the_data(tmp_path, monkeypatch, argv, name):
    out = tmp_path / name
    honest, opened = os.open, []

    def spy(path, flags, *args, **kwargs):
        opened.append(os.fspath(path))
        return honest(path, flags, *args, **kwargs)

    monkeypatch.setattr(os, "open", spy)
    assert main(argv + ["--output", str(out), "--quiet"]) == 0
    assert opened == [str(out.with_suffix(".manifest.json")), str(out)]


def test_a_fifo_output_gets_its_bytes_and_no_manifest(tmp_path):
    plain = tmp_path / "plain.csv"
    assert main(CURVE_COARSE + ["--output", str(plain), "--quiet"]) == 0
    fifo = tmp_path / "pipe.csv"
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
    reader.start()
    code = main(CURVE_COARSE + ["--output", str(fifo), "--quiet"])
    reader.join(timeout=30)
    assert not reader.is_alive()
    assert code == 0
    assert received == [plain.read_bytes()]
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "pipe.csv", "plain.csv", "plain.manifest.json"
    ]


@SUBCOMMANDS
def test_a_directory_output_exits_3_and_leaves_no_manifest(tmp_path, capsys, argv, name):
    out = tmp_path / name
    out.mkdir()
    assert main(argv + ["--output", str(out), "--quiet"]) == 3
    assert capsys.readouterr().err.startswith("i/o error:")
    assert [p.name for p in tmp_path.iterdir()] == [name]
