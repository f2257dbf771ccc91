"""Bjorck's flat phases: a second flat family, unlike the quadratic phases.

Bjorck's sequences (Bjorck 1985, 1990) are biunimodular for every odd prime
p, so their synthesis has flat moduli.  With (k/p) the Legendre symbol and
(0/p) = 0:

- p = 1 (mod 4): theta_k = arccos(1 / (1 + sqrt(p))) * (k/p);
- p = 3 (mod 4): theta_k = arccos((1 - p) / (1 + p)) where (k/p) = -1, and
  0 elsewhere.

The generator lives here, not in the library, because only tests use it.
"""

import json
import math

import numpy as np
import pytest

from equibasis import (
    FLATNESS_TOL,
    PhaseVector,
    build_state,
    entanglement,
    quadratic_phases,
    state_entanglement,
    synthesize_coefficients,
)
from equibasis.cli import main
from equibasis.core import flatness


def bjorck_phases(p: int) -> PhaseVector:
    """Bjorck's flat phases for an odd prime p."""
    legendre = np.array([0] + [1 if pow(k, (p - 1) // 2, p) == 1 else -1 for k in range(1, p)])
    if p % 4 == 1:
        theta = math.acos(1.0 / (1.0 + math.sqrt(p))) * legendre
    else:
        theta = np.where(legendre == -1, math.acos((1.0 - p) / (1.0 + p)), 0.0)
    return PhaseVector(theta)


def odd_primes(limit: int) -> list[int]:
    return [p for p in range(3, limit + 1, 2) if all(p % q for q in range(3, math.isqrt(p) + 1, 2))]


def test_flat_at_every_odd_prime_up_to_1021():
    primes = odd_primes(1021)
    assert len(primes) == 171
    worst = max((flatness(synthesize_coefficients(bjorck_phases(p))), p) for p in primes)
    assert worst[0] < FLATNESS_TOL, worst


def test_fewer_distinct_phases_than_the_quadratic_family():
    def distinct(theta):
        return len(set(np.round(theta.theta, 12)))

    assert distinct(bjorck_phases(13)) == 3
    assert distinct(quadratic_phases(13)) == 7


@pytest.mark.parametrize("p", [251, 257])  # one prime of each residue class mod 4
def test_verify_certifies_maximal(p, capsys):
    theta = ",".join(map(repr, bjorck_phases(p).theta.tolist()))
    assert main(["verify", "--theta", theta]) == 0
    assert json.loads(capsys.readouterr().out)["maximal"] is True


@pytest.mark.parametrize("p", [13, 31])
def test_every_state_has_the_seed_entanglement(p):
    """Claim (ii) on a second family: the reduced-state entropy of each of
    the p^2 basis states equals the coefficient entropy of the seed."""
    a = synthesize_coefficients(bjorck_phases(p))
    e = entanglement(a)
    for m in range(p):
        for n in range(p):
            assert abs(state_entanglement(build_state(a, m, n)) - e) <= 1e-15, (m, n)
