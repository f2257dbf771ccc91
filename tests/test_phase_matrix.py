"""``core._phase_matrix`` is built in place: the same bits, a smaller peak.

The reference is the expression it replaced, which made a fresh complex
array for the product, the quotient and the exponential.
"""

import tracemalloc

import numpy as np

from equibasis import core


def reference_phase_matrix(d: int) -> np.ndarray:
    j = np.arange(d)
    return np.exp(2j * np.pi * np.outer(j, j) / d)


def test_the_in_place_build_has_the_bits_of_the_reference():
    for d in [*range(1, 300), 512, 1000, 1024]:
        got = core._phase_matrix(d)
        assert not got.flags.writeable
        assert np.array_equal(got.view(float), reference_phase_matrix(d).view(float)), d


def test_a_d1024_build_peaks_under_28_mb():
    """The 8 MB integer table and one 16 MB complex array; 32 MB before."""
    core._phase_matrix.cache_clear()
    tracemalloc.start()
    try:
        core._phase_matrix(1024)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 28 * 2**20
