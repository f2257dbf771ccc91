"""The key order of every subcommand's ``*.manifest.json``.

``command`` comes first and records the command line as run; ``versions``
and ``timestamp`` come last; between them are the subcommand's blocks,
``config`` and, for ``verify`` only, ``checks`` after it.
"""

import json
import shlex

import pytest

from equibasis.cli import main

RUNS = {
    "construct-json": ["construct", "--family", "d3-real", "--param-deg", "30"],
    "construct-csv": ["construct", "--theta", "0,pi/2,pi", "--format", "csv"],
    "curve": ["curve", "--family", "d4-real", "--from", "0", "--to", "90", "--step", "15"],
    "search": ["search", "--d", "3", "--seed", "2"],
    "verify": ["verify", "--preset", "d=5,v=0"],
}


@pytest.mark.parametrize("name", RUNS)
def test_manifest_keys_and_command(tmp_path, name):
    argv = RUNS[name] + ["--output", str(tmp_path / "out.dat"), "--quiet"]
    assert main(argv) == 0
    manifest = json.loads((tmp_path / "out.manifest.json").read_text())
    blocks = ["config", "checks"] if name == "verify" else ["config"]
    assert list(manifest) == ["command", *blocks, "versions", "timestamp"]
    assert manifest["command"] == "equibasis " + shlex.join(argv)
