"""Property-based tests for the invariants the construction promises."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from equibasis import (
    PhaseVector,
    autocorrelation,
    build_state,
    entanglement,
    gram_check,
    root_of_unity,
    state_entanglement,
    synthesize_coefficients,
)

angles = st.floats(
    min_value=0.0, max_value=2 * math.pi, exclude_max=True, allow_nan=False
)


@st.composite
def phase_vectors(draw, min_d=2, max_d=10):
    d = draw(st.integers(min_value=min_d, max_value=max_d))
    values = draw(st.lists(angles, min_size=d, max_size=d))
    return PhaseVector(np.array(values))


@st.composite
def unit_vectors(draw, min_d=2, max_d=8):
    """Generic unit vectors, deliberately not from the synthesis."""
    d = draw(st.integers(min_value=min_d, max_value=max_d))
    re = draw(st.lists(st.floats(-1, 1, allow_nan=False), min_size=d, max_size=d))
    im = draw(st.lists(st.floats(-1, 1, allow_nan=False), min_size=d, max_size=d))
    v = np.array(re) + 1j * np.array(im)
    norm = np.linalg.norm(v)
    if norm < 1e-3:
        v = np.zeros(d, dtype=complex)
        v[0] = 1.0
        return v
    return v / norm


@given(phase_vectors())
def test_parseval_unit_norm(theta):
    a = synthesize_coefficients(theta)
    assert abs(np.linalg.norm(a) - 1.0) < 1e-12


@given(phase_vectors())
def test_flat_spectrum_orthogonality(theta):
    a = synthesize_coefficients(theta)
    for m in range(1, theta.d):
        assert abs(autocorrelation(a, m)) < 1e-12


@given(phase_vectors(), angles)
def test_global_phase_invariance(theta, gauge):
    a = synthesize_coefficients(theta)
    rotated = a * np.exp(1j * gauge)
    assert abs(entanglement(rotated) - entanglement(a)) < 1e-13
    for m in range(theta.d):
        assert abs(abs(autocorrelation(rotated, m)) - abs(autocorrelation(a, m))) < 1e-13


@given(phase_vectors())
def test_entropy_bounds(theta):
    a = synthesize_coefficients(theta)
    e = entanglement(a)
    assert 0.0 <= e <= 1.0
    residual = np.max(np.abs(np.abs(a) - 1 / math.sqrt(theta.d)))
    if residual < 1e-9:
        assert abs(e - 1.0) < 1e-12
    if e == 1.0:
        assert residual < 1e-9


def test_entropy_strictly_below_one_off_the_flat_manifold():
    # clearly non-flat moduli (residual >= 1e-6) must score below 1
    rng = np.random.default_rng(101)
    for d in (2, 3, 5, 8):
        for _ in range(50):
            raw = rng.normal(size=d) + 1j * rng.normal(size=d)
            a = raw / np.linalg.norm(raw)
            if np.max(np.abs(np.abs(a) - 1 / math.sqrt(d))) >= 1e-6:
                assert entanglement(a) < 1.0


def test_vandermonde_substitution():
    # the flat vector (1/d, ..., 1/d) solves the linear system whose rows are
    # powers of the d-th roots of unity, with right-hand side (1, 0, ..., 0)
    for d in range(2, 17):
        matrix = np.array(
            [[root_of_unity(d, m * alpha) for alpha in range(d)] for m in range(d)]
        )
        rhs = matrix @ np.full(d, 1.0 / d)
        expected = np.zeros(d, dtype=complex)
        expected[0] = 1.0
        assert np.max(np.abs(rhs - expected)) < 1e-12


@given(unit_vectors())
@settings(max_examples=50)
def test_gram_and_autocorrelation_routes_agree(a):
    d = a.size
    report = gram_check(a)
    lag_dev = max(abs(autocorrelation(a, m)) for m in range(1, d))
    norm_dev = abs(autocorrelation(a, 0) - 1.0)
    assert abs(report.max_offdiag - lag_dev) < 1e-12
    assert abs(report.max_diag_dev - norm_dev) < 1e-12
    ortho_route = lag_dev < 1e-12 and norm_dev < 1e-12
    assert report.passed == ortho_route


@given(phase_vectors(max_d=6))
@settings(max_examples=40)
def test_equi_entanglement_across_all_labels(theta):
    a = synthesize_coefficients(theta)
    reference = entanglement(a)
    for m in range(theta.d):
        for n in range(theta.d):
            value = state_entanglement(build_state(a, m, n))
            assert abs(value - reference) < 1e-10


@given(phase_vectors(max_d=8))
@settings(max_examples=50)
def test_gram_identity_for_synthesized_vectors(theta):
    report = gram_check(synthesize_coefficients(theta))
    assert report.passed


@given(phase_vectors())
def test_gauge_reduction_preserves_physics(theta):
    shifted = PhaseVector(theta.theta + 1.234)
    canonical = shifted.canonical()
    assert canonical.theta[0] == 0.0
    a = synthesize_coefficients(theta)
    b = synthesize_coefficients(canonical)
    assert np.allclose(np.abs(a), np.abs(b), atol=1e-12)
