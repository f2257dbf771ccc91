"""Brute-force oracles: state materialization, Gram matrix, reduced-state entropy."""

import math

import numpy as np
import pytest

from equibasis import (
    PhaseVector,
    autocorrelation,
    build_state,
    entanglement,
    family_d3_complex,
    gram_check,
    inner_product,
    shift_state,
    state_entanglement,
    synthesize_coefficients,
)


class TestBuildState:
    def test_identity_shifts_give_diagonal(self):
        a = synthesize_coefficients(PhaseVector([0, 1.0, 2.5]))
        s = build_state(a, 0, 0)
        assert np.allclose(np.diag(s), a)
        off = s - np.diag(np.diag(s))
        assert np.all(off == 0)

    def test_matches_listed_nine_state_pattern(self):
        # the (0,1) and (2,1) states of the complex qutrit family occupy
        # |0,1>, |1,2>, |2,0> with known amplitudes
        phi = 0.7
        a = family_d3_complex(phi)
        n_const = 1 / math.sqrt(1 + 8 * math.cos(phi) ** 2)
        big = 2 * n_const * math.cos(phi)
        mid = -n_const * np.exp(1j * phi)

        s01 = build_state(a, 0, 1)
        assert abs(s01[0, 1] - big) < 1e-15
        assert abs(s01[1, 2] - mid) < 1e-15
        assert abs(s01[2, 0] - big) < 1e-15
        assert np.count_nonzero(s01) == 3

        s21 = build_state(a, 2, 1)
        assert abs(s21[2, 0] - big) < 1e-15
        assert abs(s21[0, 1] - mid) < 1e-15
        assert abs(s21[1, 2] - big) < 1e-15

    def test_rejects_labels_out_of_range(self):
        a = np.array([1, 0, 0], dtype=complex)
        with pytest.raises(ValueError):
            build_state(a, 3, 0)
        with pytest.raises(ValueError):
            build_state(a, 0, -1)

    def test_shift_composition(self):
        rng = np.random.default_rng(17)
        a = synthesize_coefficients(PhaseVector(rng.uniform(0, 2 * np.pi, 5)))
        base = build_state(a, 0, 0)
        for m in range(5):
            for n in range(5):
                assert np.array_equal(build_state(a, m, n), shift_state(base, m, m + n))


class TestInnerProduct:
    def test_self_overlap_is_one(self):
        a = synthesize_coefficients(PhaseVector([0, 2.0, 0.3, 5.1]))
        s = build_state(a, 1, 2)
        assert abs(inner_product(s, s) - 1.0) < 1e-12

    def test_different_n_has_disjoint_support(self):
        a = synthesize_coefficients(PhaseVector([0, 1.1, 2.2]))
        assert abs(inner_product(build_state(a, 0, 0), build_state(a, 0, 1))) < 1e-12

    def test_hand_computed_orthogonality_failure(self):
        a = np.array([1, 1, 0], dtype=complex) / math.sqrt(2)
        ip = inner_product(build_state(a, 0, 0), build_state(a, 1, 0))
        assert abs(ip - 0.5) < 1e-12

    def test_rejects_dimension_mismatch(self):
        x = np.zeros((2, 2), dtype=complex)
        y = np.zeros((3, 3), dtype=complex)
        with pytest.raises(ValueError):
            inner_product(x, y)


class TestGramCheck:
    def test_synthesized_vectors_pass(self):
        rng = np.random.default_rng(23)
        for d in (2, 3, 5):
            a = synthesize_coefficients(PhaseVector(rng.uniform(0, 2 * np.pi, d)))
            report = gram_check(a)
            assert report.passed
            assert report.max_offdiag < 1e-12
            assert report.max_diag_dev < 1e-12

    def test_delta_vector_gives_exact_identity(self):
        report = gram_check(np.array([1, 0, 0], dtype=complex))
        assert report.max_offdiag == 0.0
        assert report.max_diag_dev == 0.0
        assert report.passed

    def test_bad_vector_reports_half(self):
        a = np.array([1, 1, 0], dtype=complex) / math.sqrt(2)
        report = gram_check(a)
        assert not report.passed
        assert abs(report.max_offdiag - 0.5) < 1e-12
        assert report.max_diag_dev < 1e-12

    def test_matches_autocorrelation_route(self):
        # the d^4 inner products must reduce to the d cyclic sums
        rng = np.random.default_rng(29)
        for _ in range(5):
            raw = rng.normal(size=4) + 1j * rng.normal(size=4)
            a = raw / np.linalg.norm(raw)
            report = gram_check(a)
            lags = [abs(autocorrelation(a, m)) for m in range(1, 4)]
            assert abs(report.max_offdiag - max(lags)) < 1e-12
            assert abs(report.max_diag_dev - abs(autocorrelation(a, 0) - 1)) < 1e-12


class TestStateEntanglement:
    def test_agrees_with_coefficient_route(self):
        rng = np.random.default_rng(37)
        for d in (2, 4, 6):
            a = synthesize_coefficients(PhaseVector(rng.uniform(0, 2 * np.pi, d)))
            expected = entanglement(a)
            for m in range(d):
                for n in range(d):
                    got = state_entanglement(build_state(a, m, n))
                    assert abs(got - expected) < 1e-10

    def test_product_ket_is_zero(self):
        s = np.zeros((4, 4), dtype=complex)
        s[0, 0] = 1.0
        assert state_entanglement(s) == 0.0

    def test_identity_amplitudes_are_maximal(self):
        for d in (2, 3, 8):
            assert abs(state_entanglement(np.eye(d) / math.sqrt(d)) - 1.0) < 1e-12

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            state_entanglement(np.eye(3, dtype=complex))

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            state_entanglement(np.zeros((2, 3), dtype=complex))
