"""Bjorck's flat phases: a second flat family, unlike the quadratic phases,
and their Chinese-remainder products with each other and with the quadratic
phases: a third.

Bjorck's sequences (Bjorck 1985, 1990) are biunimodular for every odd prime
p, so their synthesis has flat moduli.  With (k/p) the Legendre symbol and
(0/p) = 0:

- p = 1 (mod 4): theta_k = arccos(1 / (1 + sqrt(p))) * (k/p);
- p = 3 (mod 4): theta_k = arccos((1 - p) / (1 + p)) where (k/p) = -1, and
  0 elsewhere.

For coprime d1 and d2, the Fourier transform on Z_{d1*d2} is the tensor
product of the transforms on Z_d1 and Z_d2, up to the Chinese-remainder
re-indexing (Good 1958, Thomas 1963).  So when theta1 and theta2 are flat,
theta[alpha] = theta1[alpha mod d1] + theta2[alpha mod d2] is flat too: each
synthesized modulus is a product of one modulus of each factor.

The generators live here, not in the library, because only tests use them.
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
    verify_solution,
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


def crt_phases(theta1: PhaseVector, theta2: PhaseVector) -> PhaseVector:
    """The Chinese-remainder product of phase vectors of coprime lengths."""
    d1, d2 = theta1.d, theta2.d
    assert math.gcd(d1, d2) == 1, (d1, d2)
    alpha = np.arange(d1 * d2)
    return PhaseVector(theta1.theta[alpha % d1] + theta2.theta[alpha % d2])


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


CRT_PRODUCTS = {
    "bjorck7-fzc5": (bjorck_phases(7), quadratic_phases(5)),
    "fzc4-fzc9": (quadratic_phases(4), quadratic_phases(9)),
    "bjorck3-bjorck5-fzc7": (crt_phases(bjorck_phases(3), bjorck_phases(5)), quadratic_phases(7)),
    "bjorck13-bjorck11": (bjorck_phases(13), bjorck_phases(11)),
    "bjorck3-fzc64": (bjorck_phases(3), quadratic_phases(64)),
    "bjorck17-fzc15": (bjorck_phases(17), quadratic_phases(15)),
    "bjorck7-fzc128": (bjorck_phases(7), quadratic_phases(128)),
    "bjorck31-bjorck29": (bjorck_phases(31), bjorck_phases(29)),
    "bjorck13-fzc73": (bjorck_phases(13), quadratic_phases(73)),
    "bjorck503-fzc2": (bjorck_phases(503), quadratic_phases(2)),
}


@pytest.mark.parametrize("factors", CRT_PRODUCTS.values(), ids=CRT_PRODUCTS.keys())
def test_chinese_remainder_products_are_flat(factors):
    """Flat at every product, and certified maximal up to d = 256.

    Bjorck 503 x FZC 2 (d = 1006) has the largest flatness residual,
    3.3e-14, of the 1500 products up to d = 1024 of a Bjorck prime with a
    coprime quadratic or Bjorck factor.  Bjorck 13 x FZC 73 (d = 949) has
    the largest Gram off-diagonal seen among them, 6.6e-14; the Gram check
    at that size takes seconds, so it is not run here.
    """
    theta = crt_phases(*factors)
    assert flatness(synthesize_coefficients(theta)) < FLATNESS_TOL
    if theta.d <= 256:
        assert verify_solution(theta).maximal
