"""The tolerances at the large end of the accepted dimensions, d = 512 and
d = 1024 (``cli.MAX_DIMENSION``), where their comments argue them.

The quadratic phases are flat and fully entangled within the certificate's
bounds there, and sampled basis states pass the entropy oracle's norm check
with entropy 1 within the same bound.
"""

import pytest

from equibasis import build_state, quadratic_phases, state_entanglement, synthesize_coefficients
from equibasis.cli import MAX_DIMENSION
from equibasis.core import FLATNESS_TOL, entanglement, flatness
from equibasis.search import CERT_ENTROPY_TOL


@pytest.mark.parametrize("d", [512, MAX_DIMENSION])
def test_quadratic_phases_are_flat_at_large_d(d):
    a = synthesize_coefficients(quadratic_phases(d))
    assert flatness(a) < FLATNESS_TOL
    assert abs(entanglement(a) - 1.0) < CERT_ENTROPY_TOL


def test_sampled_states_pass_the_norm_check_at_largest_d():
    d = MAX_DIMENSION
    assert d == 1024
    a = synthesize_coefficients(quadratic_phases(d))
    labels = [(0, 0), (0, d - 1), (1, 1), (d - 1, 0), (d - 1, d - 1), (511, 7), (300, 700)]
    for m, n in labels:
        s = build_state(a, m, n)
        # state_entanglement raises ValueError past NORM_TOL
        assert abs(state_entanglement(s) - 1.0) < CERT_ENTROPY_TOL, (m, n)
