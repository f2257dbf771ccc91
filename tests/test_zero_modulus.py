"""What the search's ``ZERO_MODULUS`` tie-break does, pinned.

It guards the division z / |z| only: a modulus below 1e-15 has no usable
phase and is projected to ``radius + 0j``.  A coefficient that vanishes in
exact arithmetic is the rounding noise of a d-term sum; once that noise is
above 1e-15 (from about d = 12) the entry keeps the phase of its noise.
"""

import math

import numpy as np
import pytest

from equibasis import PhaseVector, synthesize_coefficients
from equibasis.search import ZERO_MODULUS, _project_unimodular


def zero_phase_coefficients(d):
    """All-zero phases: one peak of modulus 1, d - 1 coefficients that vanish
    in exact arithmetic."""
    a = synthesize_coefficients(PhaseVector(np.zeros(d)))
    peak = int(np.argmax(np.abs(a)))
    off_peak = np.arange(d) != peak
    return a, off_peak


def test_threshold_is_pinned():
    assert ZERO_MODULUS == 1e-15


@pytest.mark.parametrize("d, below, above", [(8, 7, 0), (64, 47, 16)])
def test_off_peak_noise_straddles_the_threshold(d, below, above):
    a, off_peak = zero_phase_coefficients(d)
    mod = np.abs(a)[off_peak]
    assert (np.count_nonzero(mod < ZERO_MODULUS), np.count_nonzero(mod >= ZERO_MODULUS)) == (
        below,
        above,
    )
    assert mod.max() < 2.6e-15


@pytest.mark.parametrize("d", [8, 64])
def test_only_moduli_below_the_threshold_take_phase_zero(d):
    a, off_peak = zero_phase_coefficients(d)
    radius = 1.0 / math.sqrt(d)
    mod = np.abs(a)
    projected = _project_unimodular(a, radius, mod, mod.min())
    small = mod < ZERO_MODULUS
    assert np.all(projected[small] == radius + 0.0j)
    kept = ~small
    assert np.array_equal(projected[kept], radius * a[kept] / mod[kept])
    noisy = kept & off_peak
    if d == 64:
        # Their phases are those of the noise, not 0.
        assert np.count_nonzero(noisy) == 16
        assert np.count_nonzero(projected[noisy].imag) > 0
    else:
        assert not noisy.any()
