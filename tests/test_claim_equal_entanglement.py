"""Claim (ii): every one of the d^2 basis states has the entanglement the
certificate reports.

``basis.gram_check``'s docstring proves it: the layout the Gram oracle
checks makes every state's amplitude matrix monomial with entries a_i, so
each Schmidt spectrum is {|a_i|^2}, for any a.  Here the per-state oracle,
``state_entanglement(build_state(a, m, n))``, is compared with the
certificate's ``entanglement``, computed from a alone.  The two differ only
by the rounding of their sums, which GAP bounds: the worst measured gap is
6.7e-16 over d = 1..48 (at d = 38) and 4.4e-16 on the sampled flat states.
"""

import math
from itertools import product

import numpy as np
import pytest

from equibasis import (
    PhaseVector,
    SolutionCertificate,
    basis,
    build_state,
    gram_check,
    quadratic_phases,
    search,
    state_entanglement,
    synthesize_coefficients,
)
from equibasis.cli import main
from test_bjorck import bjorck_phases

GAP = 2e-15


def certified_entanglement(a: np.ndarray) -> float:
    return SolutionCertificate.of(a, gram_check(a)).entanglement


def worst_gap(a: np.ndarray, labels) -> tuple[float, tuple[int, int]]:
    e = certified_entanglement(a)
    return max((abs(state_entanglement(build_state(a, m, n)) - e), (m, n)) for m, n in labels)


def random_phase_coefficients(d: int, rng: np.random.Generator) -> np.ndarray:
    theta = rng.uniform(0.0, 2.0 * math.pi, d)
    # PhaseVector needs d >= 2; at d = 1 the synthesis is a_0 = exp(i theta_0).
    return synthesize_coefficients(PhaseVector(theta)) if d >= 2 else np.exp(1j * theta)


def non_orthogonal_with_a_zero(d: int, rng: np.random.Generator) -> np.ndarray:
    v = rng.normal(size=d) + 1j * rng.normal(size=d)
    if d >= 2:  # a unit vector of one entry has no zero
        v[rng.integers(d)] = 0.0
    return v / np.linalg.norm(v)


@pytest.mark.parametrize("d", range(1, 49))
def test_every_state_has_the_certified_entanglement(d):
    rng = np.random.default_rng(2300 + d)
    labels = list(product(range(d), repeat=2))
    for kind, a in [
        ("random phases", random_phase_coefficients(d, rng)),
        ("non-orthogonal", non_orthogonal_with_a_zero(d, rng)),
    ]:
        gap, label = worst_gap(a, labels)
        assert gap <= GAP, (kind, label, gap)


@pytest.mark.parametrize(
    "theta",
    [quadratic_phases(d) for d in (64, 128, 256)] + [bjorck_phases(p) for p in (61, 127, 251)],
    ids=["quadratic-64", "quadratic-128", "quadratic-256", "bjorck-61", "bjorck-127", "bjorck-251"],
)
def test_sampled_states_of_flat_phases_have_the_certified_entanglement(theta):
    a = synthesize_coefficients(theta)
    d = a.size
    rng = np.random.default_rng(d)
    labels = [(0, 0), (d - 1, d - 1)] + [tuple(x) for x in rng.integers(0, d, (100, 2)).tolist()]
    gap, label = worst_gap(a, labels)
    assert gap <= GAP, (label, gap)


def test_a_broken_layout_exits_4_before_any_entropy(monkeypatch, capsys):
    honest = basis._support
    # labels 1 and 2 both land on diagonal 1
    monkeypatch.setattr(basis, "_support", lambda d, m, n, i: honest(d, m, min(n, 1), i))
    calls = []
    monkeypatch.setattr(search, "entanglement", lambda a: calls.append(a))
    assert main(["verify", "--preset", "d=3"]) == 4
    assert calls == []
    assert capsys.readouterr().err.startswith("internal error:")
