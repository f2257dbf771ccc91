"""Where ``cli.save`` puts a manifest: nowhere under /dev or /proc, and
beside the link for a symlinked output elsewhere.

``os.stat`` follows /dev/stdout to whatever fd 1 is, so with stdout
redirected to a regular file the output looks regular; its manifest must
still not be aimed at /dev/stdout.manifest.json.  The run that checks this
replaces ``cli.write_manifest`` by a recorder, so nothing is ever written
under /dev.
"""

import os
import subprocess
import sys
from pathlib import Path

from equibasis import cli
from equibasis.cli import main

CURVE = ["curve", "--family", "d4-real", "--from", "0", "--to", "360", "--step", "0.5"]
CONSTRUCT = ["construct", "--family", "d3-real", "--param-deg", "30"]

# Runs the CLI with the arguments given, each manifest path it would write
# reported on stderr instead of written.
RECORDING_MANIFESTS = """
import sys
from equibasis import cli

def recorder(output, argv, config, checks=None):
    sys.stderr.write(f"manifest for {output}\\n")

cli.write_manifest = recorder
sys.exit(cli.main(sys.argv[1:]))
"""


def test_dev_stdout_redirected_to_a_file_gets_the_data_and_no_manifest(tmp_path):
    plain = tmp_path / "plain.csv"
    assert main(CURVE + ["--output", str(plain), "--quiet"]) == 0
    env = dict(os.environ)
    src = str(Path(cli.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = tmp_path / "out.csv"
    with open(out, "wb") as stdout:
        run = subprocess.run(
            [sys.executable, "-c", RECORDING_MANIFESTS,
             *CURVE, "--output", "/dev/stdout", "--quiet"],
            cwd=tmp_path, env=env, stdout=stdout, stderr=subprocess.PIPE, timeout=120,
        )
    assert run.returncode == 0, run.stderr
    assert run.stderr == b""  # no manifest was asked for
    assert out.read_bytes() == plain.read_bytes()


def test_a_symlinked_output_gets_its_manifest_beside_the_link(tmp_path):
    plain = tmp_path / "plain.json"
    assert main(CONSTRUCT + ["--output", str(plain), "--quiet"]) == 0
    target = tmp_path / "data" / "target.json"
    target.parent.mkdir()
    link = tmp_path / "link.json"
    link.symlink_to(target)
    assert main(CONSTRUCT + ["--output", str(link), "--quiet"]) == 0
    assert link.is_symlink()
    assert target.read_bytes() == plain.read_bytes()
    manifest = tmp_path / "link.manifest.json"
    assert manifest.is_file() and not manifest.is_symlink()
    assert '"command": "equibasis construct' in manifest.read_text(encoding="utf-8")
    assert sorted(p.name for p in target.parent.iterdir()) == ["target.json"]
