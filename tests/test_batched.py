"""Stacked synthesis, row-wise entropy and chunked `curve` against per-vector references.

The batched paths must give every row the bits it gets alone.  The
references below are the per-vector code these paths replaced, kept here
the way the dense Gram oracle is kept in ``test_oracles.py``: a d x d
matrix-vector product per phase vector, an entropy summed over the
positive weights of one vector, and a `curve` that takes one grid point at
a time.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equibasis import (
    Family,
    PhaseVector,
    entanglement,
    interpolate,
    preset_phases,
    quadratic_phases,
    synthesize_coefficients,
)
from equibasis.cli import CURVE_CHUNK, main, make_grid
from equibasis.core import ORTHO_TOL, _phase_matrix


def reference_synthesis(theta: np.ndarray) -> np.ndarray:
    """One matrix-vector product for one phase vector."""
    return (_phase_matrix(theta.size) @ np.exp(1j * theta)) / theta.size


def reference_entanglement(a: np.ndarray) -> float:
    """Entropy of one coefficient vector, summed over its positive weights."""
    a = np.asarray(a, dtype=complex)
    d = a.size
    norm = float(np.linalg.norm(a))
    if not abs(norm - 1.0) <= 1e-9:
        raise ValueError(f"coefficient vector is not normalized: |a| = {norm!r}")
    weights = np.abs(a) ** 2
    weights = weights / weights.sum()
    nonzero = weights[weights > 0.0]
    e = float(-(nonzero * np.log(nonzero)).sum() / math.log(d))
    if e < -ORTHO_TOL or e > 1.0 + ORTHO_TOL:
        raise ValueError(f"entropy {e!r} outside [0, 1] beyond tolerance")
    return 0.0 if e <= 0.0 else min(e, 1.0)


def reference_curve_csv(grid: list[float], point) -> bytes:
    """The curve CSV computed one grid point at a time."""
    lines = ["param_deg,entanglement"]
    lines += [f"{p:.15g},{reference_entanglement(point(p)):.15g}" for p in grid]
    return ("\n".join(lines) + "\n").encode("utf-8")


def random_unit_rows(rng: np.random.Generator, kinds: list[str], d: int) -> np.ndarray:
    """Unit rows of three kinds: synthesized, product (t = 0), and generic
    vectors with some exact-zero entries."""
    rows = []
    for kind in kinds:
        if kind == "synth":
            row = reference_synthesis(rng.uniform(0.0, 2 * math.pi, d))
        elif kind == "product":
            row = reference_synthesis(np.zeros(d))
        else:
            row = rng.normal(size=d) + 1j * rng.normal(size=d)
            row[rng.random(d) < 0.4] = 0.0
            zero = rng.integers(d)
            row[zero] = 0.0
            row[(zero + rng.integers(1, d)) % d] = 1.0
            row = row / np.linalg.norm(row)
        rows.append(row)
    return np.array(rows)


@st.composite
def row_stacks(draw):
    d = draw(st.integers(min_value=2, max_value=300) | st.integers(min_value=2, max_value=9))
    kinds = draw(
        st.lists(st.sampled_from(["synth", "product", "zeros"]), min_size=1, max_size=6)
    )
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    return random_unit_rows(np.random.default_rng(seed), kinds, d)


class TestRowwiseEntropy:
    @given(row_stacks())
    @settings(max_examples=150, deadline=None)
    def test_stack_equals_per_row_calls(self, stack):
        batched = entanglement(stack)
        assert isinstance(batched, np.ndarray) and batched.shape == (len(stack),)
        per_row = [entanglement(row) for row in stack]
        assert batched.tolist() == per_row
        assert per_row == [reference_entanglement(row) for row in stack]

    @pytest.mark.parametrize("d", [3, 7, 8, 9, 64, 256])
    def test_zero_weights_in_both_regimes(self, d):
        # d < 8 sums sequentially, d >= 8 pairwise: zeros in every position
        rng = np.random.default_rng(d)
        stack = random_unit_rows(rng, ["zeros", "product", "synth", "zeros"] * 3, d)
        assert (stack == 0).any(axis=1).sum() >= 6
        assert entanglement(stack).tolist() == [reference_entanglement(r) for r in stack]

    def test_one_d_input_returns_float(self):
        a = reference_synthesis(np.array([0.0, 1.0, 2.5]))
        assert type(entanglement(a)) is float

    def test_leading_axes_are_kept(self):
        stack = random_unit_rows(np.random.default_rng(1), ["synth", "zeros", "product"] * 2, 10)
        got = entanglement(stack.reshape(2, 3, 10))
        assert got.shape == (2, 3)
        assert got.ravel().tolist() == [reference_entanglement(r) for r in stack]

    def test_one_bad_row_rejects_the_stack(self):
        stack = random_unit_rows(np.random.default_rng(2), ["synth"] * 3, 5)
        stack[1] *= 1.01
        with pytest.raises(ValueError, match="not normalized"):
            entanglement(stack)


class TestStackedSynthesis:
    @given(
        st.integers(min_value=2, max_value=300),
        st.integers(min_value=1, max_value=5),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_stack_equals_per_vector(self, d, n, seed):
        theta = np.random.default_rng(seed).uniform(0.0, 2 * math.pi, (n, d))
        stacked = synthesize_coefficients(PhaseVector(theta))
        assert stacked.shape == (n, d)
        for row, phases in zip(stacked, theta):
            assert np.array_equal(row, synthesize_coefficients(PhaseVector(phases)))
            assert np.array_equal(row, reference_synthesis(np.mod(phases, 2 * math.pi)))

    def test_interpolate_stack_equals_per_t(self):
        theta0 = quadratic_phases(64)
        ts = np.linspace(0.0, 1.0, 37)
        stacked = interpolate(theta0, ts)
        assert stacked.theta.shape == (37, 64) and stacked.d == 64
        for row, t in zip(stacked.theta, ts):
            assert np.array_equal(row, interpolate(theta0, float(t)).theta)

    def test_interpolate_stack_rejects_any_t_out_of_range(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            interpolate(preset_phases(3).theta0, np.array([0.0, 0.5, 1.5]))

    def test_stacked_canonical_fixes_each_row(self):
        stack = PhaseVector(np.array([[0.5, 1.0, 0.2], [2.0, 0.1, 6.0]])).canonical()
        assert stack.theta[:, 0].tolist() == [0.0, 0.0]
        assert np.array_equal(stack.theta[1], PhaseVector([2.0, 0.1, 6.0]).canonical().theta)


def _family_case(name: str):
    family = Family(name)
    return ["--family", name], 0.5, lambda p: family.coefficients(math.radians(p))


def _interpolate_case(source: list[str], theta0: PhaseVector):
    step = 2.0**-9  # exact in binary, so every grid point is exact
    return (
        ["--interpolate", *source],
        step,
        lambda t: reference_synthesis(np.mod(t * theta0.theta, 2 * math.pi)),
    )


def _phases_arg(theta: np.ndarray) -> str:
    return ",".join(repr(float(t)) for t in theta)


_RANDOM_256 = np.random.default_rng(256).uniform(0.0, 2 * math.pi, 256)
CASES = {
    "family-d3-real": lambda: _family_case("d3-real"),
    "family-d3-complex": lambda: _family_case("d3-complex"),
    "interpolate-d3": lambda: _interpolate_case(["--preset", "d=3"], preset_phases(3).theta0),
    "interpolate-d64": lambda: _interpolate_case(
        ["--theta0", _phases_arg(quadratic_phases(64).theta)], quadratic_phases(64)
    ),
    "interpolate-d256": lambda: _interpolate_case(
        ["--theta0", _phases_arg(_RANDOM_256)], PhaseVector(_RANDOM_256)
    ),
}


@pytest.mark.parametrize("points", [1, CURVE_CHUNK - 1, CURVE_CHUNK, CURVE_CHUNK + 1])
@pytest.mark.parametrize("case", sorted(CASES))
def test_curve_csv_matches_per_point_reference(tmp_path, case, points):
    source, step, point = CASES[case]()
    start, stop = 0.0, (points - 1) * step  # from 0: the product row is included
    out = tmp_path / "curve.csv"
    argv = ["curve", *source, "--from", repr(start), "--to", repr(stop), "--step", repr(step)]
    assert main(argv + ["--output", str(out), "--quiet"]) == 0
    grid = make_grid(start, stop, step)
    assert len(grid) == points
    assert out.read_bytes() == reference_curve_csv(grid, point)
