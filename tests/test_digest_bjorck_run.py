"""The ``verify-bjorck-509`` run of ``tools/cli_digests.py`` certifies
Bjorck's flat phases at p = 509 as maximal, so the digest listing pins the
bytes of a passing certificate of a second flat family at large d.  The
tool keeps its own generator; it must give the phases of
``test_bjorck.bjorck_phases``."""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from equibasis import PhaseVector
from equibasis.cli import main
from test_bjorck import bjorck_phases

TOOL = Path(__file__).resolve().parents[1] / "tools" / "cli_digests.py"
spec = importlib.util.spec_from_file_location("cli_digests", TOOL)
cli_digests = importlib.util.module_from_spec(spec)
spec.loader.exec_module(cli_digests)


@pytest.mark.parametrize("p", [13, 31, 509])  # p = 1, 3, 1 (mod 4)
def test_the_tool_generator_gives_bjorck_phases(p):
    theta = [float(t) for t in cli_digests.bjorck(p).split(",")]
    np.testing.assert_array_equal(PhaseVector(np.array(theta)).theta, bjorck_phases(p).theta)


def test_the_run_is_maximal(tmp_path):
    argv = dict(cli_digests.runs())["verify-bjorck-509"]
    out = tmp_path / "verify.json"
    assert main([*argv, "--output", str(out), "--quiet"]) == 0
    assert json.loads(out.read_text())["maximal"] is True
