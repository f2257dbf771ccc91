"""A manifest's ``command`` is the run's argv quoted for a POSIX shell:
``shlex.split`` gives back ``["equibasis", *argv]`` for every manifest run of
``tools/cli_digests.py`` and for argv a shell would split or expand, and
``sh -c`` re-runs it to the same exit code and data bytes."""

import importlib.util
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from equibasis import cli
from equibasis.cli import main, write_manifest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "cli_digests.py"
spec = importlib.util.spec_from_file_location("cli_digests", TOOL)
cli_digests = importlib.util.module_from_spec(spec)
spec.loader.exec_module(cli_digests)


def recorded(path: Path) -> str:
    return json.loads(path.with_suffix(".manifest.json").read_text(encoding="utf-8"))["command"]


def manifest_runs() -> list[tuple[str, list[str]]]:
    """(name, argv with the tool's --output) of every tool run that writes a manifest."""
    out = []
    for name, argv in cli_digests.runs():
        argv, data_file = cli_digests.with_output(name, argv)
        if data_file is not None:
            out.append((name, argv))
    return out


def test_every_digest_run_round_trips(tmp_path):
    runs = manifest_runs()
    assert "verify-theta-spaced" in dict(runs)
    for name, argv in runs:
        write_manifest(tmp_path / "out.json", argv, {})
        assert shlex.split(recorded(tmp_path / "out.json")) == ["equibasis", *argv], name


@pytest.mark.parametrize("arg", [
    "0, pi/2", "1,0;0,1", "it's", "$HOME", "*", "", "a\nb", "\"'\\`", "-",
])
def test_an_adversarial_argument_round_trips(tmp_path, arg):
    argv = ["verify", "--theta", arg, "--output", str(tmp_path / "out.json")]
    write_manifest(tmp_path / "out.json", argv, {})
    assert shlex.split(recorded(tmp_path / "out.json")) == ["equibasis", *argv]


def test_a_run_records_its_argv_as_given(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    argv = ["verify", "--theta", "0, pi/2", "--output", "it's $HOME *.json", "--quiet"]
    assert main(argv) == 0
    assert shlex.split(recorded(Path("it's $HOME *.json"))) == ["equibasis", *argv]
    assert sorted(os.listdir()) == ["it's $HOME *.json", "it's $HOME *.manifest.json"]


@pytest.mark.parametrize("argv, code", [
    (["verify", "--coeffs=1,0;1,0", "--output", "semicolon.json"], 1),
    (["verify", "--theta", "0, pi/2, pi", "--output", "space.json"], 0),
])
def test_sh_reruns_the_recorded_command(tmp_path, monkeypatch, capsys, argv, code):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == code
    capsys.readouterr()
    data = Path(argv[-1])
    first = data.read_bytes()
    data.unlink()
    command = recorded(data)
    assert command.startswith("equibasis ")
    python = shlex.join([sys.executable, "-m", "equibasis.cli"])
    env = dict(os.environ)
    src = str(Path(cli.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    run = subprocess.run(
        ["sh", "-c", python + command.removeprefix("equibasis")],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == code, run.stderr
    assert data.read_bytes() == first
    assert recorded(data) == command
