"""Structured oracles against dense references.

The Gram oracle works one same-n block at a time; the dense d^2 x d^2 Gram
matrix below is its reference.  The reduced-state entropy reads a monomial
amplitude matrix off directly; a full ``eigvalsh`` is its reference.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equibasis import GramReport, basis, build_state, gram_check, state_entanglement


def dense_gram_check(a: np.ndarray) -> GramReport:
    """Reference: materialize all d^2 states and form the whole Gram matrix."""
    a = np.asarray(a, dtype=complex)
    d = a.size
    states = np.empty((d * d, d * d), dtype=complex)
    for m in range(d):
        for n in range(d):
            states[m * d + n] = build_state(a, m, n).ravel()
    gram = states.conj() @ states.T
    deviation = np.abs(gram - np.eye(d * d))

    diag = np.diag(deviation)
    offdiag = deviation.copy()
    np.fill_diagonal(offdiag, 0.0)

    row, col = (int(x) for x in np.unravel_index(int(np.argmax(deviation)), deviation.shape))
    worst = ((row // d, row % d), (col // d, col % d))
    return GramReport(
        d=d,
        max_offdiag=float(offdiag.max()),
        max_diag_dev=float(diag.max()),
        worst_pair=worst,
    )


def eigvalsh_entropy(s: np.ndarray) -> float:
    """Reference: base-d entropy of the full spectrum of rho_A = s s^H."""
    lam = np.clip(np.linalg.eigvalsh(s @ s.conj().T), 0.0, None)
    lam = lam[lam > 0.0] / lam.sum()
    return float(-(lam * np.log(lam)).sum() / math.log(s.shape[0]))


@st.composite
def unit_vectors(draw, min_d=2, max_d=12):
    """Generic unit vectors, some with exact zeros, not from the synthesis."""
    d = draw(st.integers(min_value=min_d, max_value=max_d))
    parts = st.floats(-1, 1, allow_nan=False) | st.just(0.0)
    re = draw(st.lists(parts, min_size=d, max_size=d))
    im = draw(st.lists(parts, min_size=d, max_size=d))
    v = np.array(re) + 1j * np.array(im)
    norm = np.linalg.norm(v)
    if norm < 1e-3:
        v = np.zeros(d, dtype=complex)
        v[0] = 1.0
        return v
    return v / norm


@st.composite
def monomial_states(draw, max_d=12):
    """Normalized generalized permutation matrices, some entries zero."""
    d = draw(st.integers(min_value=2, max_value=max_d))
    perm = draw(st.permutations(range(d)))
    moduli = draw(st.lists(st.floats(1e-6, 1) | st.just(0.0), min_size=d, max_size=d))
    if sum(moduli) == 0.0:
        moduli[0] = 1.0
    phases = draw(st.lists(st.floats(0, 2 * math.pi), min_size=d, max_size=d))
    s = np.zeros((d, d), dtype=complex)
    s[np.arange(d), perm] = np.array(moduli) * np.exp(1j * np.array(phases))
    return s / np.linalg.norm(s)


class TestGramAgainstDense:
    @given(unit_vectors())
    @settings(max_examples=60, deadline=None)
    def test_reports_agree(self, a):
        fast, dense = gram_check(a), dense_gram_check(a)
        assert fast.d == dense.d
        assert fast.passed == dense.passed
        assert abs(fast.max_offdiag - dense.max_offdiag) < 1e-14
        assert abs(fast.max_diag_dev - dense.max_diag_dev) < 1e-14

        (m1, n1), (m2, n2) = fast.worst_pair
        assert n1 == n2
        overlap = np.vdot(build_state(a, m1, n1), build_state(a, m2, n2))
        entry = abs(overlap - (1.0 if m1 == m2 else 0.0))
        assert abs(entry - max(fast.max_offdiag, fast.max_diag_dev)) < 1e-14

    @pytest.mark.parametrize(
        "a",
        [
            np.array([1], dtype=complex),
            np.array([1, 0, 0], dtype=complex),
            np.array([1, 1, 0], dtype=complex) / math.sqrt(2),
            np.array([0.7071, 0.7071], dtype=complex) / math.hypot(0.7071, 0.7071),
            np.array([1, 1, 1, 1], dtype=complex) / 2,
        ],
        ids=["d1", "delta", "pair", "d2-coeffs", "flat"],
    )
    def test_exact_ties_give_identical_reports(self, a):
        assert gram_check(a) == dense_gram_check(a)


class TestSupportCheck:
    def test_overlapping_diagonals_raise(self, monkeypatch):
        honest = basis._support
        # labels 1 and 2 both land on diagonal 1
        monkeypatch.setattr(basis, "_support", lambda d, m, n: honest(d, m, min(n, 1)))
        with pytest.raises(RuntimeError, match="diagonal"):
            gram_check(np.ones(4, dtype=complex) / 2)

    def test_repeated_cell_raises(self, monkeypatch):
        honest = basis._support
        # a_0 and a_1 share a cell, so diagonal n is not covered once
        monkeypatch.setattr(
            basis, "_support",
            lambda d, m, n: tuple(x[..., np.arange(d) // 2 * 2] for x in honest(d, m, n)),
        )
        with pytest.raises(RuntimeError, match="diagonal"):
            gram_check(np.ones(4, dtype=complex) / 2)


class TestMonomialEntropy:
    @given(monomial_states())
    @settings(max_examples=60, deadline=None)
    def test_matches_eigvalsh_route(self, s):
        assert abs(state_entanglement(s) - eigvalsh_entropy(s)) < 1e-12

    def test_route_taken(self, monkeypatch):
        monomial = build_state(np.array([0.6, 0.0, 0.8j]), 1, 2)
        mixed = np.zeros((3, 3), dtype=complex)
        mixed[0, 0] = mixed[1, 0] = mixed[2, 1] = 1 / math.sqrt(3)  # two entries in column 0
        expected = eigvalsh_entropy(mixed)

        calls = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda x: calls.append(1) or eigvalsh(x))
        state_entanglement(monomial)
        assert calls == []
        assert abs(state_entanglement(mixed) - expected) < 1e-12
        assert calls == [1]
