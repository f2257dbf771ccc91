"""One meaning per exit code of the ``equibasis`` process: an exception that
``main`` does not classify exits 4 with its traceback and an ``internal
error:`` line, never 1, while exit 1 stays the negative verdict of
``verify`` (Gram failed) and ``search`` (not converged), and a stdout that
cannot be written exits 3 like any other I/O error.  A stderr that is
closed or full loses its message and never changes the code.  Each case
runs ``cli.entrypoint`` in a fresh process under ``-W error``.  An
in-process ``main`` still lets such an exception through (``Reached`` in
``test_dimension_limit.py``)."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from equibasis import cli

# Run cli.entrypoint with sys.argv[1:] as its arguments, after replacing
# cli.gram_check with a function that raises the exception named by the
# environment variable CRASH, if set.
SCRIPT = """
import os, sys
from equibasis import cli

def crash(a):
    raise {"TypeError": TypeError, "MemoryError": MemoryError}[os.environ["CRASH"]]("injected")

if "CRASH" in os.environ:
    cli.gram_check = crash
sys.argv[0] = "equibasis"
cli.entrypoint()
"""


# Shell redirections of fd 2 by name: none, closed, or a device where every
# write fails with ENOSPC.
STDERR = {None: "", "closed": " 2>&-", "full": " 2>/dev/full"}


def run_entrypoint(*args, crash=None, close_stdout=False, stderr=None):
    env = dict(os.environ)
    env.pop("CRASH", None)
    if crash is not None:
        env["CRASH"] = crash
    src = str(Path(cli.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    command = [sys.executable, "-W", "error", "-c", SCRIPT, *args]
    redirects = " >&-" * close_stdout + STDERR[stderr]
    if redirects:
        command = ["sh", "-c", 'exec "$@"' + redirects, "sh", *command]
    return subprocess.run(
        command,
        env=env, capture_output=True, text=True, timeout=120,
    )


@pytest.mark.parametrize("crash", ["TypeError", "MemoryError"])
def test_an_unclassified_exception_exits_4_with_its_traceback(crash):
    run = run_entrypoint("verify", "--preset", "d=3,v=0", crash=crash)
    assert run.returncode == 4, run.stderr
    assert run.stdout == ""
    assert "Traceback (most recent call last):" in run.stderr
    assert f"{crash}: injected" in run.stderr
    assert run.stderr.splitlines()[-1] == f"internal error: {crash}('injected')"


def test_a_non_orthogonal_basis_still_exits_1():
    run = run_entrypoint("verify", "--coeffs=1,0;1,0")
    assert run.returncode == 1, run.stderr
    assert run.stderr == ""
    assert '"maximal": false' in run.stdout


def test_a_search_that_does_not_converge_still_exits_1():
    run = run_entrypoint("search", "--d", "12", "--restarts", "1", "--max-iters", "200")
    assert run.returncode == 1, run.stderr
    assert run.stderr == ""
    assert '"converged": false' in run.stdout


@pytest.mark.parametrize(
    "args",
    [["construct", "--theta", "0,pi"], ["verify", "--theta", "0,pi"], ["search", "--d", "4"],
     ["verify", "--theta", "0,pi", "--output"]],
    ids=["construct", "verify", "search", "verify-output"],
)
def test_a_closed_stdout_is_an_io_error(args, tmp_path):
    output = tmp_path / "v.json"
    if args[-1] == "--output":
        args = [*args, str(output)]
    run = run_entrypoint(*args, close_stdout=True)
    assert run.returncode == 3, run.stderr
    assert run.stderr == "i/o error: standard output is closed\n"
    assert list(tmp_path.iterdir()) == []  # stdout is written first


def written(output):
    """The data file and the manifest of output, with the timestamp dropped."""
    manifest = json.loads(output.with_suffix(".manifest.json").read_text())
    del manifest["timestamp"]
    return output.read_bytes(), manifest


CURVE = ["curve", "--family", "d3-real", "--from", "0", "--to", "90", "--step", "5", "--output"]


def test_a_curve_writes_its_files_before_a_closed_stdout_fails_it(tmp_path):
    output = tmp_path / "c.csv"
    run = run_entrypoint(*CURVE, str(output))
    assert run.returncode == 0, run.stderr
    expected = written(output)
    for path in tmp_path.iterdir():
        path.unlink()
    run = run_entrypoint(*CURVE, str(output), close_stdout=True)
    assert run.returncode == 3, run.stderr
    assert run.stderr == "i/o error: standard output is closed\n"
    assert written(output) == expected


def test_a_quiet_curve_does_not_write_to_stdout(tmp_path):
    output = tmp_path / "c.csv"
    run = run_entrypoint(*CURVE, str(output), "--quiet", close_stdout=True)
    assert run.returncode == 0, run.stderr
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.csv", "c.manifest.json"]


@pytest.mark.parametrize("stderr", ["closed", "full"])
def test_a_lost_error_message_keeps_exit_2(stderr):
    run = run_entrypoint("verify", "--theta", "0,pi/0", stderr=stderr)
    assert run.returncode == 2
    assert run.stdout == ""


@pytest.mark.parametrize("stderr", ["closed", "full"])
def test_a_lost_stderr_keeps_the_negative_verdict(stderr):
    run = run_entrypoint("verify", "--coeffs=1,0;1,0", stderr=stderr)
    assert run.returncode == 1
    assert '"maximal": false' in run.stdout


def test_a_lost_io_error_message_keeps_exit_3(tmp_path):
    run = run_entrypoint("verify", "--theta", "0,pi", "--output", str(tmp_path), stderr="full")
    assert run.returncode == 3


def test_a_lost_traceback_keeps_exit_4():
    run = run_entrypoint("verify", "--preset", "d=3,v=0", crash="TypeError", stderr="closed")
    assert run.returncode == 4
    assert run.stdout == ""
