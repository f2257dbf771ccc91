"""The per-d tables are cached one dimension at a time.

``core._phase_matrix`` and ``basis._rotation`` keep only the table of the
last d asked for, so a change of d rebuilds it.  A rebuilt table must give
the same bits as a warm one, and the table of a d no longer in use must be
released.
"""

import gc
import tracemalloc

import numpy as np

from equibasis import (
    PhaseVector,
    SearchConfig,
    alternating_projection_search,
    build_state,
    gram_check,
    quadratic_phases,
    synthesize_coefficients,
)
from equibasis import basis, core


def _phases(d: int) -> PhaseVector:
    return PhaseVector(np.linspace(0.0, 5.0, d) ** 2)


def test_synthesis_after_a_rebuild_has_the_same_bits():
    warm = synthesize_coefficients(_phases(64))
    matrix = core._phase_matrix(64)
    synthesize_coefficients(_phases(7))
    assert core._phase_matrix(64) is not matrix  # evicted by d = 7, built again
    rebuilt = synthesize_coefficients(_phases(64))
    assert np.array_equal(rebuilt, warm)


def test_search_after_a_rebuild_has_the_same_result():
    cfg = SearchConfig(d=12, rng_seed=3)
    alternating_projection_search(cfg)
    warm = alternating_projection_search(cfg)
    matrix = core._phase_matrix(12)
    synthesize_coefficients(quadratic_phases(256))
    rebuilt = alternating_projection_search(cfg)
    assert core._phase_matrix(12) is not matrix
    assert np.array_equal(rebuilt.theta.theta, warm.theta.theta)
    assert rebuilt.residual == warm.residual
    assert rebuilt.iterations == warm.iterations
    assert rebuilt.converged == warm.converged
    assert rebuilt.restart_index == warm.restart_index


def test_oracles_after_a_rotation_rebuild_have_the_same_results():
    a = synthesize_coefficients(_phases(16))
    warm_report = gram_check(a)
    warm_state = build_state(a, 3, 11)
    table = basis._rotation(16)
    gram_check(synthesize_coefficients(_phases(5)))
    assert basis._rotation(16) is not table  # evicted by d = 5, built again
    assert gram_check(a) == warm_report
    gram_check(synthesize_coefficients(_phases(5)))
    assert np.array_equal(build_state(a, 3, 11), warm_state)


def test_the_matrix_of_a_previous_dimension_is_released():
    """After a d = 1024 synthesis, a d = 8 call frees its 16 MB matrix."""
    matrix_bytes = 16 * 1024**2
    core._phase_matrix.cache_clear()  # as in a fresh process
    tracemalloc.start()
    try:
        synthesize_coefficients(_phases(1024))
        synthesize_coefficients(_phases(8))
        gc.collect()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak >= matrix_bytes  # the d = 1024 matrix was built while traced
    assert held < matrix_bytes / 16
