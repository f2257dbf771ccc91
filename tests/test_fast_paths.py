"""Per-call fast paths against the code they replaced.

``build_state`` reads its cells off two rows of a cached rotation table,
and ``state_entanglement`` takes the row sums of |s|^2 from ``np.vecdot``
and the norm from ``np.add.reduce``.  The references below are the
previous bodies: the state laid out from the formula on fresh index
arrays, and the entropy from ``np.abs(s) ** 2`` with a separate norm
sum.  The projection step of the search skips its zero-modulus tie-break
when no modulus is small; the reference always applies it.  A search
sweep takes its residual from the extremes of the moduli and its phases
from ``arctan2``, and it transforms back through the transpose view of the
phase matrix with a conjugate on either side; the reference sweep takes
``max |mod - target|`` and ``np.angle``, and transforms back through a
conjugated copy of the matrix.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equibasis import PhaseVector, basis, build_state, iterate_projections, search
from equibasis import state_entanglement
from equibasis.basis import EIGENVALUE_FLOOR
from equibasis.core import NORM_TOL, TWO_PI, _phase_matrix, _synthesize, _weights_entropy


def reference_build_state(a: np.ndarray, m: int, n: int) -> np.ndarray:
    """The (m, n) state with a_i on ((i+m) mod d, (i+m+n) mod d)."""
    a = np.asarray(a, dtype=complex)
    d = a.size
    i = np.arange(d)
    amp = np.zeros((d, d), dtype=complex)
    amp[(i + m) % d, (i + m + n) % d] = a
    return amp


def reference_state_entanglement(s: np.ndarray) -> float:
    """Entropy of rho_A from |s|^2 weights, with the norm summed separately."""
    s = np.asarray(s, dtype=complex)
    if s.ndim != 2 or s.shape[0] != s.shape[1]:
        raise ValueError(f"state must be a square amplitude matrix, got {s.shape}")
    weights = np.abs(s) ** 2
    norm = math.sqrt(weights.sum())
    if not abs(norm - 1.0) <= NORM_TOL:
        raise ValueError(f"state is not normalized: |s| = {norm!r}")
    if np.count_nonzero(s, axis=0).max() <= 1:
        lam = weights.sum(axis=1)
    else:
        lam = np.linalg.eigvalsh(s @ s.conj().T)
        if lam.min() < EIGENVALUE_FLOOR:
            raise ValueError(f"reduced state has negative eigenvalue {lam.min()!r}")
        lam = np.clip(lam, 0.0, None)
    lam = lam / lam.sum()
    return _weights_entropy(lam)


def reference_project_unimodular(z: np.ndarray, radius: float) -> np.ndarray:
    """Projection with the zero-modulus tie-break always applied."""
    mod = np.abs(z)
    safe = np.where(mod < search.ZERO_MODULUS, 1.0, mod)
    return np.where(mod < search.ZERO_MODULUS, radius + 0.0j, radius * z / safe)


def reference_iterate_projections(theta: PhaseVector, max_iters: int, residual_tol: float):
    """The sweep loop with the residual over all moduli, ``np.angle`` and a
    conjugated copy of the phase matrix."""
    d = theta.d
    target = 1.0 / math.sqrt(d)
    inverse = _phase_matrix(d).conj().T
    th = theta.theta.copy()
    iterations = 0
    while True:
        a = _synthesize(th)
        mod = np.abs(a)
        residual = float(np.max(np.abs(mod - target)))
        if residual < residual_tol or iterations >= max_iters:
            break
        c = (inverse @ reference_project_unimodular(a, target)) / math.sqrt(d)
        th = np.angle(c)
        th = np.where(np.abs(c) < search.ZERO_MODULUS, 0.0, th)
        th = np.mod(th - th[0], TWO_PI)
        iterations += 1
    return PhaseVector(th).canonical(), residual, iterations


def unit_vector(re, im) -> np.ndarray:
    v = np.array(re) + 1j * np.array(im)
    norm = np.linalg.norm(v)
    if norm < 1e-3:
        v = np.zeros(len(re), dtype=complex)
        v[0] = 1.0
        return v
    return v / norm


@st.composite
def basis_states(draw, max_d=48):
    """(a, m, n): a unit seed, some entries exactly zero or tiny, and labels."""
    d = draw(st.integers(min_value=2, max_value=max_d))
    parts = st.floats(-1, 1, allow_nan=False) | st.just(0.0) | st.sampled_from([1e-170, -1e-300])
    a = unit_vector(
        draw(st.lists(parts, min_size=d, max_size=d)), draw(st.lists(parts, min_size=d, max_size=d))
    )
    return a, draw(st.integers(0, d - 1)), draw(st.integers(0, d - 1))


@pytest.mark.parametrize("d", [*range(1, 10), 16, 33])
def test_build_state_matches_support_layout(d):
    a = np.random.default_rng(d).normal(size=d) + 1j * np.arange(d)
    for m in range(d):
        for n in range(d):
            assert np.array_equal(build_state(a, m, n), reference_build_state(a, m, n))


@pytest.mark.parametrize("d", range(1, 34))
def test_label_array_support_stacks_the_int_label_rows(d):
    """One row per label for a label array; table views for an int label."""
    table = basis._rotation(d)
    for n in range(d):
        pairs = [basis._support(d, m, n) for m in range(d)]
        for j, k in pairs:
            assert np.shares_memory(j, table) and np.shares_memory(k, table)
        rows, cols = basis._support(d, np.arange(d), n)
        assert np.array_equal(rows, np.stack([j for j, _ in pairs]))
        assert np.array_equal(cols, np.stack([k for _, k in pairs]))


@given(basis_states())
@settings(max_examples=200, deadline=None)
def test_entropy_matches_reference_on_basis_states(state):
    a, m, n = state
    s = build_state(a, m, n)
    assert abs(state_entanglement(s) - reference_state_entanglement(s)) <= 1e-14


@pytest.mark.parametrize(
    "a",
    [
        np.array([0.6, 0.0, 0.8j]),
        np.eye(8)[3],
        unit_vector([1.0, 0.0, 1e-170, 0.5] * 12, [0.0, 0.0, 0.0, -0.25] * 12),
        unit_vector(np.cos(np.arange(48.0) ** 2), np.sin(np.arange(48.0) ** 2)),
    ],
    ids=["d3-zero", "d8-product", "d48-zeros", "d48-flat"],
)
def test_entropy_matches_reference_on_every_state(a):
    d = a.size
    for m in range(d):
        for n in range(d):
            s = build_state(a, m, n)
            assert abs(state_entanglement(s) - reference_state_entanglement(s)) <= 1e-14


@given(st.integers(2, 12), st.integers(0, 2**32 - 1), st.booleans())
@settings(max_examples=60, deadline=None)
def test_entropy_matches_reference_on_mixed_states(d, key, sparse):
    """Matrices with a column of two or more nonzeros go through eigvalsh."""
    rng = np.random.default_rng(key)
    s = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    if sparse:  # exact zeros, but column 0 keeps two nonzero entries
        s[rng.random((d, d)) < 0.5] = 0.0
        s[:2, 0] = 1.0
    s /= np.linalg.norm(s)
    assert np.count_nonzero(s, axis=0).max() > 1
    assert abs(state_entanglement(s) - reference_state_entanglement(s)) <= 1e-14


def _strided_views(s: np.ndarray):
    """The same matrix as a Fortran-ordered copy, a transposed view and a strided view."""
    yield np.asfortranarray(s)
    yield np.ascontiguousarray(s.T).T
    wide = np.zeros((s.shape[0], 2 * s.shape[1]), dtype=complex)
    wide[:, ::2] = s
    yield wide[:, ::2]


@pytest.mark.parametrize("d", [2, 5, 16])
def test_non_contiguous_input_gives_the_contiguous_value(d):
    rng = np.random.default_rng(d)
    a = rng.normal(size=d) + 1j * rng.normal(size=d)
    a /= np.linalg.norm(a)
    mixed = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    mixed /= np.linalg.norm(mixed)
    for s in (build_state(a, 1 % d, d - 1), mixed, mixed.T):
        expected = state_entanglement(np.ascontiguousarray(s))
        for view in _strided_views(s):
            assert not view.flags.c_contiguous
            assert state_entanglement(view) == expected
        assert state_entanglement(s) == expected


def test_monomial_test_reads_the_amplitudes(monkeypatch):
    """A column whose second entry squares to zero is still not monomial."""
    s = np.zeros((3, 3), dtype=complex)
    s[0, 0], s[1, 0], s[2, 1] = 0.6, 1e-170, 0.8j
    calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda x: calls.append(1) or eigvalsh(x))
    value = state_entanglement(s)
    assert calls == [1]
    assert abs(value - reference_state_entanglement(s)) <= 1e-14


@given(
    st.integers(2, 40),
    st.integers(0, 2**32 - 1),
    st.lists(st.sampled_from([0.0, -1e-16j, -3e-300 + 4e-300j, 9.9e-16]), max_size=3),
)
@settings(max_examples=80, deadline=None)
def test_projection_matches_reference(d, key, small):
    rng = np.random.default_rng(key)
    z = rng.normal(size=d) + 1j * rng.normal(size=d)
    k = min(len(small), d)
    z[:k] = small[:k]  # moduli below ZERO_MODULUS get phase 0, not their own
    radius = 1.0 / math.sqrt(d)
    mod = np.abs(z)
    got = search._project_unimodular(z, radius, mod, mod.min())
    want = reference_project_unimodular(z, radius)
    assert got.tobytes() == want.tobytes()


@given(
    st.integers(2, 40),
    st.one_of(st.none(), st.integers(0, 2**32 - 1)),
    st.sampled_from([1e-10, 1e-3, 0.2]),
)
@settings(max_examples=60, deadline=None)
def test_sweeps_match_reference(d, key, tol):
    """Same theta bits, residual and sweep count as the reference loop.

    A key of None starts from the zero phases, whose synthesis is a delta:
    its d - 1 other moduli are rounding noise, below ``ZERO_MODULUS`` (the
    tie-break path of the projection) for small d.
    """
    start = PhaseVector(np.zeros(d)) if key is None else search._restart_phases(d, key, 0)
    theta, residual, iterations = iterate_projections(start, 40, tol)
    want_theta, want_residual, want_iterations = reference_iterate_projections(start, 40, tol)
    assert theta.theta.tobytes() == want_theta.theta.tobytes()
    assert (residual, iterations) == (want_residual, want_iterations)


@pytest.mark.parametrize("d", [*range(41, 71), 127, 128, 255, 256, 511, 512, 1024])
def test_sweeps_match_reference_where_blas_blocking_changes(d):
    """The same bits as the conjugated copy at the sizes around the gemv
    kernel's block edges, up to ``cli.MAX_DIMENSION``."""
    for seed, sweeps in ((0, 10), (1, 25), (7, 40)):
        start = search._restart_phases(d, seed, 0)
        theta, residual, iterations = iterate_projections(start, sweeps, 1e-300)
        want_theta, want_residual, want_iterations = reference_iterate_projections(
            start, sweeps, 1e-300
        )
        assert theta.theta.tobytes() == want_theta.theta.tobytes(), seed
        assert (residual, iterations) == (want_residual, want_iterations), seed
