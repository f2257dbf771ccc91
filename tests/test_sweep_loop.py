"""The search's one sweep loop and its callers' accounting, and the Gram
oracle's input shape.

``iterate_projections`` returns the start unchanged (gauge-fixed) after 0
sweeps when ``max_iters <= 0``.  After any number of sweeps, the residual it
reads off the extreme moduli is bit for bit ``core.flatness`` of the phases
it returns.  ``alternating_projection_search`` calls it
through the module attribute once per restart tried, so the sweeps of a
converged search add up to ``restart_index * max_iters + iterations``, the
count ``bench/make_search_pool.py`` and the traced ``search.sweeps`` read.
``gram_check`` takes one nonempty 1-d coefficient vector and names the
shape of anything else.
"""

import re

import numpy as np
import pytest

from equibasis import PhaseVector, gram_check, search, synthesize_coefficients, verify_solution
from equibasis.core import flatness


@pytest.mark.parametrize("max_iters", [0, -1])
@pytest.mark.parametrize("d", [2, 5, 16])
def test_no_sweep_returns_the_start(d, max_iters):
    # theta[0] != 0, so the gauge fix of the returned phases shows.
    start = PhaseVector(np.linspace(0.3, 5.0, d))
    theta, residual, iterations = search.iterate_projections(start, max_iters, 1e-300)
    assert iterations == 0
    assert np.array_equal(theta.theta, start.canonical().theta)
    assert residual == flatness(synthesize_coefficients(start))
    assert residual > 0.0


@pytest.mark.parametrize("d", [*range(2, 65), 128, 256])
def test_swept_residual_is_flatness_of_the_returned_phases(d):
    for seed in (0, 1, 7):
        start = search._restart_phases(d, seed, 0)
        for max_iters in (1, 2, 13, 50):
            theta, residual, iterations = search.iterate_projections(start, max_iters, 1e-300)
            assert iterations == max_iters
            assert residual == flatness(synthesize_coefficients(theta)), (seed, max_iters)


@pytest.mark.parametrize("d, seed, max_iters", [(7, 0, 300), (8, 1, 100), (10, 1, 300)])
def test_search_calls_the_loop_once_per_restart(monkeypatch, d, seed, max_iters):
    calls = []
    iterate = search.iterate_projections

    def recording(theta, n, tol):
        result = iterate(theta, n, tol)
        calls.append((n, tol, result[2]))
        return result

    monkeypatch.setattr(search, "iterate_projections", recording)
    cfg = search.SearchConfig(d=d, rng_seed=seed, max_iters=max_iters, restarts=12)
    result = search.alternating_projection_search(cfg)
    assert result.converged and result.restart_index > 0
    assert len(calls) == result.restart_index + 1
    assert all(n == max_iters and tol == cfg.residual_tol for n, tol, _ in calls)
    assert calls[-1][2] == result.iterations
    assert sum(sweeps for _, _, sweeps in calls) == (
        result.restart_index * max_iters + result.iterations
    )


def orthonormal(d):
    """Coefficients whose d^2 states are orthonormal."""
    return synthesize_coefficients(PhaseVector(np.linspace(0.0, 2.0, d)))


@pytest.mark.parametrize("a", [
    orthonormal(4)[:, None],
    orthonormal(4)[None, :],
    np.zeros((0,), dtype=complex),
    np.zeros((0, 3), dtype=complex),
    np.complex128(1.0),
    np.stack([orthonormal(4), orthonormal(4)]),
], ids=["column", "row", "empty", "empty-2d", "scalar", "stack"])
def test_gram_check_rejects_a_non_vector_naming_its_shape(a):
    with pytest.raises(ValueError, match=f"got shape {re.escape(str(np.shape(a)))}$"):
        gram_check(a)


def test_verify_solution_rejects_a_stacked_phase_vector():
    stacked = PhaseVector(np.zeros((2, 4)))
    with pytest.raises(ValueError, match=r"got shape \(2, 4\)"):
        verify_solution(stacked)
