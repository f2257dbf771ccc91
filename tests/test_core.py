"""Frozen-value tests for the core primitives."""

import math
import warnings

import numpy as np
import pytest

from equibasis import (
    PhaseVector,
    autocorrelation,
    entanglement,
    root_of_unity,
    state_entanglement,
    synthesize_coefficients,
)


class TestRootOfUnity:
    def test_quarter_turn(self):
        assert abs(root_of_unity(4, 1) - 1j) < 1e-15

    def test_half_turn(self):
        assert abs(root_of_unity(2, 1) - (-1)) < 1e-15

    def test_third_turn(self):
        expected = complex(-0.5, math.sqrt(3) / 2)
        assert abs(root_of_unity(3, 1) - expected) < 1e-15

    def test_multiple_of_d_is_bit_exact_one(self):
        for d, p in [(1, 0), (3, 3), (5, -10), (7, 700)]:
            z = root_of_unity(d, p)
            assert z.real == 1.0 and z.imag == 0.0

    def test_negative_exponent(self):
        assert abs(root_of_unity(4, -1) + 1j) < 1e-15

    def test_rejects_bad_dimension(self):
        with pytest.raises(ValueError):
            root_of_unity(0, 1)


class TestPhaseVector:
    def test_reduces_to_principal_range(self):
        pv = PhaseVector([2 * math.pi, -math.pi / 2, 5 * math.pi])
        assert pv.theta[0] == 0.0
        assert abs(pv.theta[1] - 3 * math.pi / 2) < 1e-15
        assert abs(pv.theta[2] - math.pi) < 1e-12

    def test_canonical_fixes_gauge(self):
        pv = PhaseVector([0.5, 1.0, 0.2]).canonical()
        assert pv.theta[0] == 0.0
        assert abs(pv.theta[1] - 0.5) < 1e-15

    def test_gauge_change_keeps_moduli(self):
        pv = PhaseVector([0.7, 1.9, 4.0, 2.2])
        a = synthesize_coefficients(pv)
        b = synthesize_coefficients(pv.canonical())
        assert np.allclose(np.abs(a), np.abs(b), atol=1e-13)

    def test_rejects_short_and_nonfinite(self):
        with pytest.raises(ValueError):
            PhaseVector([1.0])
        with pytest.raises(ValueError):
            PhaseVector([0.0, math.nan])
        with pytest.raises(ValueError):
            PhaseVector([0.0, math.inf])
        with pytest.raises(ValueError, match="real"):
            PhaseVector(np.array([1 + 1j, 2.0]))

    def test_immutable(self):
        pv = PhaseVector([0.0, 1.0])
        with pytest.raises(ValueError):
            pv.theta[0] = 3.0


class TestSynthesize:
    @pytest.mark.parametrize("d", [2, 3, 5, 8])
    def test_zero_phases_give_delta(self, d):
        a = synthesize_coefficients(PhaseVector(np.zeros(d)))
        expected = np.zeros(d, dtype=complex)
        expected[0] = 1.0
        assert np.allclose(a, expected, atol=1e-15)

    def test_d4_flat_row(self):
        a = synthesize_coefficients(PhaseVector([0, 0, 0, math.pi]))
        expected = np.array([0.5, 0.5j, 0.5, -0.5j])
        assert np.allclose(a, expected, atol=1e-15)

    def test_d2_quarter_phase(self):
        a = synthesize_coefficients(PhaseVector([0, math.pi / 2]))
        expected = np.array([(1 + 1j) / 2, (1 - 1j) / 2])
        assert np.allclose(a, expected, atol=1e-15)

    def test_unit_norm(self):
        rng = np.random.default_rng(5)
        for d in (2, 3, 7, 16):
            a = synthesize_coefficients(PhaseVector(rng.uniform(0, 2 * np.pi, d)))
            assert abs(np.linalg.norm(a) - 1.0) < 1e-12


class TestAutocorrelation:
    def test_delta_vector(self):
        assert abs(autocorrelation(np.array([1, 0, 0], dtype=complex), 1)) < 1e-15

    def test_symmetric_d2_violates_orthogonality(self):
        a = np.array([1, 1], dtype=complex) / math.sqrt(2)
        assert abs(autocorrelation(a, 1) - 1.0) < 1e-15

    def test_synthesized_vectors_are_perfect_sequences(self):
        rng = np.random.default_rng(11)
        for d in (2, 4, 9):
            a = synthesize_coefficients(PhaseVector(rng.uniform(0, 2 * np.pi, d)))
            assert abs(autocorrelation(a, 0) - 1.0) < 1e-12
            for m in range(1, d):
                assert abs(autocorrelation(a, m)) < 1e-12

    def test_rejects_lag_out_of_range(self):
        a = np.array([1, 0, 0], dtype=complex)
        with pytest.raises(ValueError):
            autocorrelation(a, 3)
        with pytest.raises(ValueError):
            autocorrelation(a, -1)


class TestEntanglement:
    def test_product_state(self):
        a = np.zeros(5, dtype=complex)
        a[0] = 1.0
        assert entanglement(a) == 0.0

    @pytest.mark.parametrize("d", [2, 3, 4, 7, 16])
    def test_flat_vector_is_maximal(self, d):
        a = np.ones(d, dtype=complex) / math.sqrt(d)
        assert abs(entanglement(a) - 1.0) < 1e-14

    def test_d4_two_level_spectrum(self):
        # weights 5/8 once and 1/8 three times
        a = np.array([math.sqrt(5 / 8), math.sqrt(1 / 8), math.sqrt(1 / 8), math.sqrt(1 / 8)], dtype=complex)
        expected = -(5 / 8) * math.log(5 / 8) / math.log(4) - 3 * (1 / 8) * math.log(1 / 8) / math.log(4)
        assert abs(entanglement(a) - expected) < 1e-14

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            entanglement(np.array([1.0, 1.0], dtype=complex))


class TestOneLevel:
    """d = 1 holds only product states: entropy 0, no warning, norm still checked."""

    def test_vector(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert entanglement(np.array([1.0])) == 0.0
            assert entanglement(np.array([-1j])) == 0.0

    def test_stack(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = entanglement(np.ones((3, 1)))
        assert isinstance(got, np.ndarray) and got.shape == (3,)
        assert np.all(got == 0.0)

    def test_state(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert state_entanglement(np.array([[1.0]])) == 0.0

    def test_unnormalized_is_still_rejected(self):
        with pytest.raises(ValueError, match="not normalized"):
            entanglement(np.array([2.0]))
        with pytest.raises(ValueError, match="not normalized"):
            entanglement(np.array([[1.0], [2.0]]))
        with pytest.raises(ValueError, match="not normalized"):
            state_entanglement(np.array([[2.0]]))
