"""One meaning per exit code of the ``equibasis`` process: an exception that
``main`` does not classify exits 4 with its traceback and an ``internal
error:`` line, never 1, while exit 1 stays the negative verdict of
``verify`` (Gram failed) and ``search`` (not converged), and a stdout that
cannot be written exits 3 like any other I/O error.  Each case runs
``cli.entrypoint`` in a fresh process under ``-W error``.  An in-process
``main`` still lets such an exception through (``Reached`` in
``test_dimension_limit.py``)."""

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


def run_entrypoint(*args, crash=None, close_stdout=False):
    env = dict(os.environ)
    env.pop("CRASH", None)
    if crash is not None:
        env["CRASH"] = crash
    src = str(Path(cli.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    command = [sys.executable, "-W", "error", "-c", SCRIPT, *args]
    if close_stdout:
        command = ["sh", "-c", 'exec "$@" >&-', "sh", *command]
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


def test_a_closed_stdout_is_an_io_error():
    run = run_entrypoint("construct", "--theta", "0,pi", close_stdout=True)
    assert run.returncode == 3, run.stderr
    assert run.stderr == "i/o error: standard output is closed\n"
