"""The symmetries of flat phases keep them flat, at every d.

Each map below sends phases theta whose synthesis a has flat moduli to
phases that are flat too:

- cyclic shift of theta, which multiplies a_k by a phase ramp in k;
- adding the ramp 2*pi*r*alpha/d, which shifts a cyclically by r;
- decimation alpha -> u*alpha (mod d) with gcd(u, d) = 1, which permutes a;
- negation, which conjugates a and reverses its order;
- a global phase, which multiplies a by one phase.

Shift and decimation permute theta, and scaling by t commutes with a
permutation, so they also keep the interpolation curve E(t*theta): shift
modulates and decimation permutes the coefficients of every t*theta.  The
ramp and the global phase do not commute with the scaling once theta wraps
past 2*pi, so they keep only the flat endpoint.

The inputs are the quadratic phases at every d = 2..64 and Bjorck's phases
at every odd prime up to 61.
"""

import math

import numpy as np
import pytest

from equibasis import (
    PhaseVector,
    entanglement,
    interpolate,
    quadratic_phases,
    synthesize_coefficients,
    verify_solution,
)
from test_bjorck import bjorck_phases, odd_primes

CURVE_T = np.linspace(0.0, 1.0, 21)
CURVE_TOL = 1e-12

FLAT = {f"quadratic-{d}": quadratic_phases(d) for d in range(2, 65)} | {
    f"bjorck-{p}": bjorck_phases(p) for p in odd_primes(61)
}


def units(d: int) -> list[int]:
    """The smallest u >= 2 coprime to d, and d - 1 (d = 2 has only u = 1)."""
    smallest = next((u for u in range(2, d) if math.gcd(u, d) == 1), 1)
    return sorted({smallest, d - 1})


def symmetric_images(theta: np.ndarray) -> dict[str, np.ndarray]:
    d = theta.size
    alpha = np.arange(d)
    images = {
        "shift": np.roll(theta, 1),
        "ramp": theta + 2.0 * math.pi * alpha / d,
        "negation": -theta,
        "global-phase": theta + 1.234,
    }
    images.update({f"decimation-{u}": theta[(u * alpha) % d] for u in units(d)})
    return images


def curve(theta: np.ndarray) -> np.ndarray:
    return entanglement(synthesize_coefficients(interpolate(PhaseVector(theta), CURVE_T)))


@pytest.mark.parametrize("theta0", FLAT.values(), ids=FLAT.keys())
def test_every_symmetry_keeps_the_phases_flat(theta0):
    assert verify_solution(theta0).maximal
    for name, image in symmetric_images(theta0.theta).items():
        assert verify_solution(PhaseVector(image)).maximal, name


@pytest.mark.parametrize("theta0", FLAT.values(), ids=FLAT.keys())
def test_shift_and_decimation_keep_the_interpolation_curve(theta0):
    reference = curve(theta0.theta)
    for name, image in symmetric_images(theta0.theta).items():
        if name == "shift" or name.startswith("decimation"):
            assert np.max(np.abs(curve(image) - reference)) <= CURVE_TOL, name
