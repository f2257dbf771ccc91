"""The Gram oracle sorts a label's rows only when they differ from the last
rows it verified, and tests the wrapped diagonal without a modulo.

Reports must equal those of ``previous_gram_check``, the body that
multiplied every block, above the d <= 33 that ``test_oracle_reuse.py``
covers; and ``verify`` at d = 512, where the skipped sorts save the most,
still certifies the quadratic phases as maximal.
"""

import json

import pytest

from equibasis import gram_check, quadratic_phases
from equibasis.cli import main
from test_oracle_reuse import gram_inputs, previous_gram_check


@pytest.mark.parametrize("d", [64, 128])
def test_reports_equal_the_every_block_reference(d):
    for name, a in gram_inputs(d).items():
        assert gram_check(a) == previous_gram_check(a), name


def test_verify_of_the_quadratic_phases_at_d_512_is_maximal(tmp_path):
    theta = ",".join(repr(float(t)) for t in quadratic_phases(512).theta)
    out = tmp_path / "verify.json"
    assert main(["verify", "--theta", theta, "--output", str(out), "--quiet"]) == 0
    assert json.loads(out.read_text())["maximal"] is True
