"""CLI outputs agree across OpenBLAS kernels to a stated bound.

Data files are byte-identical for one platform (numpy build, BLAS kernel,
SIMD level), not across platforms: another kernel sums the synthesis
product in another order, and the last digits move.  This test re-runs four
of ``tools/cli_digests.py``'s runs with ``python -m equibasis.cli`` under
the default kernel and under each kernel ``OPENBLAS_CORETYPE`` selects, and
asserts what does hold across them: the exit code, and every stdout, stderr
and data text with each number replaced by a placeholder (the JSON keys,
the ``maximal`` and ``converged`` verdicts, the CSV rows and the text
around them).  The numbers agree within ``ABS_TOL``; an integer such as
``iterations`` or ``restart_index`` can only agree within it by being
equal.

The bound is absolute, because some of these values are rounding residuals
(``verify``'s Gram maxima, about 1e-15) whose relative move reached 1/3.
The worst absolute move measured over these runs, on an AVX-512 Xeon whose
default kernel is SkylakeX, under Haswell, Sandybridge and Prescott, was
1.0e-15, in the d = 5 curve.

A ``DYNAMIC_ARCH`` OpenBLAS picks its kernel at load time; any other build
has one kernel, so there is nothing to compare and the test skips.  An
``OPENBLAS_CORETYPE`` the build does not know, or the machine's own kernel,
compares the default with itself.
"""

import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from equibasis import cli

TOOL = Path(__file__).resolve().parents[1] / "tools" / "cli_digests.py"
spec = importlib.util.spec_from_file_location("cli_digests", TOOL)
cli_digests = importlib.util.module_from_spec(spec)
spec.loader.exec_module(cli_digests)

# A search, a verify at d = 64, an interpolation curve and a construct: each
# moves in its last digits under at least two of the kernels below.
RUNS = ("search-d6", "verify-theta-64", "curve-preset-d5-v0", "construct-theta-16-json")
KERNELS = ("Haswell", "Sandybridge", "Prescott")
ABS_TOL = 1e-12

NUMBER = re.compile(r"-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?")
BLAS = np.show_config(mode="dicts")["Build Dependencies"].get("blas", {})

pytestmark = pytest.mark.skipif(
    "DYNAMIC_ARCH" not in BLAS.get("openblas configuration", ""),
    reason="OpenBLAS not built DYNAMIC_ARCH: one BLAS kernel, no other to compare with",
)


def run_all(tmp_path: Path, coretype: str | None) -> dict[str, tuple[int, str, str, str]]:
    """(exit code, stdout, stderr, data text) of every run in RUNS under one kernel."""
    env = dict(os.environ)
    env.pop("OPENBLAS_CORETYPE", None)
    if coretype is not None:
        env["OPENBLAS_CORETYPE"] = coretype
    src = str(Path(cli.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    cwd = tmp_path / (coretype or "default")
    cwd.mkdir()
    argvs = dict(cli_digests.runs())
    out = {}
    for name in RUNS:
        argv, data_file = cli_digests.with_output(name, argvs[name])
        run = subprocess.run(
            [sys.executable, "-m", "equibasis.cli", *argv],
            cwd=cwd, env=env, capture_output=True, text=True, timeout=120,
        )
        out[name] = (run.returncode, run.stdout, run.stderr, (cwd / data_file).read_text())
    return out


def assert_close(got: str, want: str, where: str) -> None:
    assert NUMBER.sub("#", got) == NUMBER.sub("#", want), where
    for g, w in zip(NUMBER.findall(got), NUMBER.findall(want)):
        assert abs(float(g) - float(w)) <= ABS_TOL, (where, g, w)


@pytest.fixture(scope="module")
def default(tmp_path_factory):
    return run_all(tmp_path_factory.mktemp("kernels"), None)


@pytest.mark.parametrize("coretype", KERNELS)
def test_kernel_agrees_with_the_default(default, tmp_path, coretype):
    got = run_all(tmp_path, coretype)
    for name in RUNS:
        assert got[name][0] == default[name][0], (coretype, name)
        for stream, g, w in zip(("stdout", "stderr", "data"), got[name][1:], default[name][1:]):
            assert_close(g, w, f"{coretype} {name} {stream}")


def test_the_runs_carry_their_verdicts(default):
    assert default["search-d6"][0] == 0
    assert '"converged": true' in default["search-d6"][1]
    assert '"restart_index": 0' in default["search-d6"][1]
    assert '"maximal": true' in default["verify-theta-64"][1]
    assert len(default["curve-preset-d5-v0"][3].splitlines()) == 1002
