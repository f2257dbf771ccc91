"""One meaning per exit code of the ``equibasis`` process: an exception that
``main`` does not classify exits 4 with its traceback and an ``internal
error:`` line, never 1, while exit 1 stays the negative verdict of
``verify`` (Gram failed) and ``search`` (not converged), and a stdout that
cannot be written exits 3 like any other I/O error.  A stderr that is
closed or full loses its message and never changes the code.  Each case
runs ``cli.entrypoint`` in a fresh process under ``-W error``, with
``PYTHONUNBUFFERED`` cleared, so stdout is buffered as in a user's shell
and a write that fails only in the interpreter's exit-time flush (exit
120) shows.  An in-process ``main`` still lets such an exception through
(``Reached`` in ``test_dimension_limit.py``)."""

import errno
import io
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


# Shell redirections of fd 1 by name: none, closed, or a device where every
# write fails with ENOSPC.  "broken" is a pipe whose read end is closed
# before the child starts, so every write fails with EPIPE; the child's
# stdout is then not captured.
STDOUT = {None: "", "closed": " >&-", "full": " >/dev/full", "broken": ""}

# Shell redirections of fd 2 by name: none, closed, or a device where every
# write fails with ENOSPC.
STDERR = {None: "", "closed": " 2>&-", "full": " 2>/dev/full"}


def run_entrypoint(*args, crash=None, stdout=None, stderr=None):
    env = dict(os.environ)
    env.pop("CRASH", None)
    env.pop("PYTHONUNBUFFERED", None)
    if crash is not None:
        env["CRASH"] = crash
    src = str(Path(cli.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    command = [sys.executable, "-W", "error", "-c", SCRIPT, *args]
    redirects = STDOUT[stdout] + STDERR[stderr]
    if redirects:
        command = ["sh", "-c", 'exec "$@"' + redirects, "sh", *command]
    if stdout != "broken":
        return subprocess.run(command, env=env, capture_output=True, text=True, timeout=120)
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        return subprocess.run(
            command, env=env, stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=120
        )
    finally:
        os.close(write_end)


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
    run = run_entrypoint(*args, stdout="closed")
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
    run = run_entrypoint(*CURVE, str(output), stdout="closed")
    assert run.returncode == 3, run.stderr
    assert run.stderr == "i/o error: standard output is closed\n"
    assert written(output) == expected


def test_a_quiet_curve_does_not_write_to_stdout(tmp_path):
    output = tmp_path / "c.csv"
    run = run_entrypoint(*CURVE, str(output), "--quiet", stdout="closed")
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


ENOSPC = "i/o error: [Errno 28] No space left on device\n"


@pytest.mark.parametrize(
    "args",
    [["verify", "--theta", "0,pi"], ["search", "--d", "4"], ["construct", "--theta", "0,pi"], CURVE],
    ids=["verify", "search", "construct", "curve"],
)
def test_a_full_stdout_is_an_io_error(args, tmp_path):
    if args[-1] == "--output":
        args = [*args, str(tmp_path / "c.csv")]
    run = run_entrypoint(*args, stdout="full")
    assert run.returncode == 3, run.stderr
    assert run.stderr == ENOSPC


@pytest.mark.parametrize("args", [["verify", "--theta", "0,pi"], ["search", "--d", "4"]],
                         ids=["verify", "search"])
def test_a_full_stdout_fails_before_the_output_file(args, tmp_path):
    run = run_entrypoint(*args, "--output", str(tmp_path / "r.json"), stdout="full")
    assert run.returncode == 3, run.stderr
    assert run.stderr == ENOSPC
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "args", [["search", "--d", "4"], ["construct", "--theta", ",".join(["0"] * 40)]],
    ids=["search", "construct-d40"],
)
def test_a_broken_pipe_is_an_io_error(args):
    run = run_entrypoint(*args, stdout="broken")
    assert run.returncode == 3, run.stderr
    assert run.stderr == "i/o error: [Errno 32] Broken pipe\n"


ARGPARSE_STDOUT = [["--help"], ["--version"], ["verify", "--help"]]
ARGPARSE_IDS = ["help", "version", "verify-help"]


@pytest.mark.parametrize("args", ARGPARSE_STDOUT, ids=ARGPARSE_IDS)
def test_argparse_text_on_a_full_stdout_is_an_io_error(args):
    run = run_entrypoint(*args, stdout="full")
    assert run.returncode == 3, run.stderr
    assert run.stderr == ENOSPC


@pytest.mark.parametrize("args", ARGPARSE_STDOUT, ids=ARGPARSE_IDS)
def test_argparse_text_on_a_closed_stdout_is_an_io_error(args):
    run = run_entrypoint(*args, stdout="closed")
    assert run.returncode == 3, run.stderr
    assert run.stderr == "i/o error: standard output is closed\n"


@pytest.mark.parametrize("args", [["--help"], ["verify", "--help"]], ids=["help", "verify-help"])
def test_help_goes_to_stdout(args):
    run = run_entrypoint(*args)
    assert run.returncode == 0, run.stderr
    assert run.stderr == ""
    assert run.stdout.startswith("usage: equibasis")


@pytest.mark.parametrize("stderr", [None, "closed", "full"])
def test_a_usage_error_never_writes_to_stdout(stderr):
    run = run_entrypoint("verify", "--nope", stderr=stderr)
    assert run.returncode == 2
    assert run.stdout == ""
    if stderr is None:
        assert run.stderr.startswith("usage: equibasis")
        assert run.stderr.endswith("error: unrecognized arguments: --nope\n")


class FullStream(io.StringIO):
    """A stream without a fd on which every write fails with ENOSPC."""

    def write(self, text):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


def test_a_failing_stream_without_a_fd_is_an_io_error(monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdout", FullStream())
    assert cli.main(["verify", "--theta", "0,pi"]) == 3
    assert capsys.readouterr().err == ENOSPC
