"""The restart stream: the in-repo Philox4x64-10 draws the bits of numpy's
``Generator(Philox(key=[seed, restart])).random(d)``, and a search never
imports ``numpy.random``."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from equibasis.core import TWO_PI
from equibasis.search import _restart_phases

SRC = Path(__file__).resolve().parents[1] / "src"


def reference_phases(d: int, seed: int, restart: int) -> np.ndarray:
    key = np.array([seed, restart], dtype=np.uint64)
    th = TWO_PI * np.random.Generator(np.random.Philox(key=key)).random(d)
    th[0] = 0.0
    return th


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**64 - 1),
    as_numpy=st.booleans(),
    restart=st.integers(0, 2**20 - 1),
    d=st.one_of(st.integers(2, 40), st.integers(2, 1024)),
)
def test_restart_phases_equal_numpy_philox(seed, as_numpy, restart, d):
    key = np.uint64(seed) if as_numpy else seed
    got = _restart_phases(d, key, restart).theta
    want = reference_phases(d, seed, restart)
    assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()


def test_edge_keys_and_block_boundaries():
    for seed in (0, 1, 2**63, 2**64 - 1):
        for restart in (0, 2**20 - 1):
            for d in (2, 3, 4, 5, 1023, 1024):
                got = _restart_phases(d, seed, restart).theta
                want = reference_phases(d, seed, restart)
                assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()


def test_search_does_not_import_numpy_random(tmp_path):
    script = (
        "import sys\n"
        "from equibasis.cli import main\n"
        "code = main(['search', '--d', '8', '--seed', '3', '--restarts', '2', '--quiet',"
        " '--output', 'out.json'])\n"
        "assert code == 0, code\n"
        "assert 'numpy.random' not in sys.modules, 'numpy.random was imported'\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", script], cwd=tmp_path, env=env, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "out.json").exists()
