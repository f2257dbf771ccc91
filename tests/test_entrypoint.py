"""The console entry point, ``python -m equibasis.cli``, in a fresh process:
``entrypoint`` exits with ``main``'s code, and running the module as a
script raises no warning (``-W error``)."""

import os
import subprocess
import sys
from pathlib import Path

from equibasis import cli


def run_module(*args):
    env = dict(os.environ)
    src = str(Path(cli.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-W", "error", "-m", "equibasis.cli", *args],
        env=env, capture_output=True, text=True, timeout=120,
    )


def test_version_exits_0_with_the_versions_line():
    run = run_module("--version")
    assert run.returncode == 0, run.stderr
    assert run.stdout == cli.versions_line() + "\n"


def test_bad_arguments_exit_2_with_the_error_on_stderr():
    run = run_module("verify", "--preset", "d=7")
    assert run.returncode == 2
    assert run.stderr.startswith("error: no preset for d=7")
