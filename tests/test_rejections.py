"""Rejections and representations that no other test reaches: the entropy
oracle's eigenvalue floor and the repr of ``PhaseVector``, the dataclass's."""

import math

import numpy as np
import pytest

from equibasis import PhaseVector, state_entanglement
from equibasis.basis import EIGENVALUE_FLOOR


def _non_monomial_state() -> np.ndarray:
    """A normalised 2 x 2 state with two nonzero cells in column 0."""
    return np.array([[1.0, 0.0], [1.0, 0.0]], dtype=complex) / math.sqrt(2.0)


@pytest.mark.parametrize("low", [EIGENVALUE_FLOOR * 2, -1e-3])
def test_eigenvalue_below_the_floor_is_rejected(monkeypatch, low):
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda rho: np.array([low, 1.0 - low]))
    with pytest.raises(ValueError, match="negative eigenvalue"):
        state_entanglement(_non_monomial_state())


def test_eigenvalue_at_the_floor_is_clipped(monkeypatch):
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda rho: np.array([EIGENVALUE_FLOOR, 1.0]))
    assert state_entanglement(_non_monomial_state()) == 0.0


def test_phase_vector_repr():
    assert repr(PhaseVector([0.0, 1.0])) == "PhaseVector(theta=array([0., 1.]))"


def test_stacked_phase_vector_repr():
    """A stack prints numpy's summary, not one number per angle: a d = 1024
    curve chunk holds 262 144 of them."""
    text = repr(PhaseVector(np.zeros((256, 1024))))
    assert text.startswith("PhaseVector(theta=array([[")
    assert len(text) < 500
