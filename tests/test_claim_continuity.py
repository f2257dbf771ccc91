"""Claim (iii): the interpolated bases move continuously, by the bounds that
``families.interpolate``'s docstring proves.

Between neighbouring points t, s of a grid of step h, with
L = ||theta0||_2 / sqrt(d):

- the coefficients, and with them all d^2 states, move by
  ||a(t) - a(s)||_2 <= L * |t - s|;
- the base-d entanglement moves by at most the Fannes-Audenaert bound
  [T ln(d - 1) + h2(T)] / ln d, with T = ||a(t) - a(s)||_2.

Both sides are computed in floating point, so each bound gets ROUNDING:
about d * eps at d = 64, far above the rounding of a d-term synthesis or
entropy sum of unit-norm terms (the largest excess seen over 3000 random
cases was 4.8e-17, at phases near 1e-6).
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from equibasis import PhaseVector, entanglement, interpolate, synthesize_coefficients

ROUNDING = 64 * np.finfo(float).eps
WINDOW = 32  # grid steps checked per example


def fannes_audenaert(distance: float, d: int) -> float:
    """The bound on |E(t) - E(s)| at trace distance ``distance``, in base-d units."""
    if distance >= 1.0 - 1.0 / d:
        return 1.0
    if distance == 0.0:
        return 0.0
    h2 = -distance * math.log(distance) - (1.0 - distance) * math.log1p(-distance)
    return (distance * math.log(d - 1) + h2) / math.log(d)


@st.composite
def paths(draw):
    d = draw(st.integers(2, 64))
    theta0 = draw(st.lists(st.floats(0.0, 2.0 * math.pi, exclude_max=True), min_size=d, max_size=d))
    h = draw(st.floats(1e-5, 0.1))
    steps = min(WINDOW, int(1.0 / h))
    start = draw(st.floats(0.0, 1.0)) * (1.0 - steps * h)
    t = np.clip(start + h * np.arange(steps + 1), 0.0, 1.0)  # rounding may step outside
    return PhaseVector(np.array(theta0)), t


@given(paths())
@settings(max_examples=300, deadline=None)
def test_neighbouring_grid_points_obey_both_bounds(path):
    theta0, t = path
    d = theta0.d
    lipschitz = float(np.linalg.norm(theta0.theta)) / math.sqrt(d)
    assert lipschitz < 2.0 * math.pi
    a = synthesize_coefficients(interpolate(theta0, t))
    e = entanglement(a)
    moves = np.linalg.norm(np.diff(a, axis=0), axis=1)
    for k, (move, dt, de) in enumerate(zip(moves, np.diff(t), np.abs(np.diff(e)))):
        assert move <= lipschitz * dt + ROUNDING, (k, move, lipschitz * dt)
        assert de <= fannes_audenaert(float(move), d) + ROUNDING, (k, de, move)
