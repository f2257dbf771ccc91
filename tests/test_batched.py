"""Stacked synthesis, row-wise entropy and chunked `curve` against per-vector references.

The batched paths must give every row the bits it gets alone.  The
references below are the per-vector code these paths replaced, kept here
the way the dense Gram oracle is kept in ``test_oracles.py``: a d x d
matrix-vector product per phase vector, an entropy summed over the
positive weights of one vector, a `curve` that takes one grid point at
a time, the closed-form families in scalar ``math`` and the grid built
with one ``min`` per point.
"""

import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
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
from equibasis import cli
from equibasis.cli import CURVE_CHUNK, main, make_grid
from equibasis.core import ORTHO_TOL, _phase_matrix, _weights_entropy


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
            interpolate(preset_phases(3), np.array([0.0, 0.5, 1.5]))

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
    "interpolate-d3": lambda: _interpolate_case(["--preset", "d=3"], preset_phases(3)),
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


# --- closed-form families over parameter arrays ------------------------------


def reference_family(family: Family, x: float) -> np.ndarray:
    """The closed forms in scalar ``math``, one parameter at a time."""
    if family is Family.D3_REAL:
        s, c = math.sin(x), math.cos(x)
        denom = 1.0 + s * c
        return np.array([(s + c) * c / denom, (s + c) * s / denom, -s * c / denom], dtype=complex)
    if family is Family.D3_COMPLEX:
        c = math.cos(x)
        n = 1.0 / math.sqrt(1.0 + 8.0 * c * c)
        return np.array([2.0 * c * n, -np.exp(1j * x) * n, 2.0 * c * n], dtype=complex)
    if family is Family.D4_REAL:
        s, c = math.sin(x), math.cos(x)
        return np.array([c, 1.0 + s, -c, 1.0 - s], dtype=complex) / 2.0
    s = 0.5 * np.exp(1j * x) * math.sin(x)
    a0 = 0.5 * (1.0 + np.exp(1j * x) * math.cos(x))
    return np.array([a0, s, s / 1j, -s], dtype=complex)


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Equal shapes and values, with -0.0 told apart from 0.0."""
    x, y = np.asarray(a).view(float), np.asarray(b).view(float)
    return x.shape == y.shape and np.array_equal(x, y) and np.array_equal(np.signbit(x), np.signbit(y))


SPECIAL_PARAMS = [
    0.0, -0.0, math.pi / 4, math.pi / 3, math.pi / 2, math.pi, -math.pi, 2 * math.pi, -5e-324
]


@given(
    st.lists(
        st.sampled_from(SPECIAL_PARAMS)
        | st.floats(min_value=-10.0, max_value=10.0)
        | st.floats(min_value=0.0, max_value=2 * math.pi)
        | st.floats(min_value=-1e-300, max_value=1e-300),  # subnormals too
        min_size=1,
        max_size=40,
    )
)
@example(SPECIAL_PARAMS)
@settings(max_examples=150, deadline=None)
def test_family_over_array_equals_stacked_scalar_calls(params):
    xs = np.array(params)
    for family in Family:
        d = int(family.value[1])  # "d3-real" is a d = 3 family
        stacked = family.coefficients(xs)
        assert stacked.shape == (xs.size, d) and stacked.dtype == complex
        per_scalar = [family.coefficients(x) for x in params]
        assert all(row.shape == (d,) for row in per_scalar)
        assert same_bits(stacked, np.array(per_scalar))
        assert same_bits(stacked, np.array([reference_family(family, x) for x in params]))


def test_family_curve_grid_in_radians_equals_scalar_math():
    # every 0.01-degree point of [0, 360], converted and chunked the way `curve` does
    grid = make_grid(0.0, 360.0, 0.01)
    radians = np.radians(grid)
    assert radians.tolist() == [math.radians(p) for p in grid.tolist()]
    for family in Family:
        expected = np.array([reference_family(family, x) for x in radians.tolist()])
        chunks = [radians[lo : lo + CURVE_CHUNK] for lo in range(0, radians.size, CURVE_CHUNK)]
        assert same_bits(np.concatenate([family.coefficients(c) for c in chunks]), expected)
        assert same_bits(family.coefficients(radians), expected)


# --- grid ----------------------------------------------------------------------


def reference_grid(start: float, stop: float, step: float) -> list[float]:
    n = int(math.floor((stop - start) / step + 1e-9))
    return [min(start + i * step, stop) for i in range(n + 1)]


@st.composite
def grid_ranges(draw):
    start = draw(st.sampled_from([0.0, -0.0, 360.0]) | st.floats(min_value=0.0, max_value=360.0))
    step = draw(st.sampled_from([0.02, 0.25, 0.37, 1.0, 2.0**-9]) | st.floats(min_value=1e-3, max_value=400.0))
    k = draw(st.integers(min_value=0, max_value=600))
    # stop on a grid point, just below it within and beyond the 1e-9 slack, just above it
    nudge = draw(st.sampled_from([0.0, -1e-10, -1e-8, 1e-10, 1e-8, 0.5]))
    stop = start + (k + nudge) * step
    if draw(st.booleans()):
        stop = draw(st.sampled_from([stop, 360.0, -0.0, 0.0, start]))
    return start, max(stop, start), step


@given(grid_ranges())
@settings(max_examples=300, deadline=None)
def test_make_grid_equals_one_min_per_point(case):
    start, stop, step = case
    grid = make_grid(start, stop, step)
    expected = np.array(reference_grid(start, stop, step))
    assert grid.dtype == float and same_bits(grid, expected)
    assert grid[0] == start and grid[-1] <= stop


def test_make_grid_signed_zero_stop_keeps_the_first_point():
    # Python's min(0.0, -0.0) is 0.0, np.minimum's is -0.0; the CSV tells them apart
    assert same_bits(make_grid(0.0, -0.0, 1.0), np.array([0.0]))
    assert same_bits(make_grid(-0.0, 0.0, 1.0), np.array([0.0]))


# --- stacked entropy clamp -------------------------------------------------------


def _weights_with_entropy(target: float, d: int = 3) -> np.ndarray:
    """A weight row whose entropy is about ``target`` (NaN: a NaN weight)."""
    if math.isnan(target):
        return np.array([math.nan] + [1.0 / (d - 1)] * (d - 1))
    if target <= 0.0:  # -(1+x) log_d(1+x) ~ -x / ln d
        return np.array([1.0 - target * math.log(d)] + [0.0] * (d - 1))
    excess = target - 1.0  # (1+x) * (1 - log_d(1+x)) ~ 1 + x (1 - 1/ln d)
    return np.full(d, (1.0 + excess / (1.0 - 1.0 / math.log(d))) / d)


@pytest.mark.parametrize("target", [-1e-9, 1.0 + 1e-9, math.nan])
def test_stacked_clamp_rejects_an_injected_row(target):
    bad = _weights_with_entropy(target)
    with pytest.raises(RuntimeError, match="outside") as alone:
        _weights_entropy(bad)
    value = float(re.search(r"entropy (\S+) outside", str(alone.value)).group(1))
    assert math.isnan(value) if math.isnan(target) else value == pytest.approx(target, abs=1e-12)
    good = np.full(3, 1.0 / 3.0)
    for stack in ([good, bad, good], [bad, bad], [good, good, good, bad]):
        with pytest.raises(RuntimeError, match=re.escape(str(alone.value))):
            _weights_entropy(np.array(stack))


@pytest.mark.parametrize("target", [-5e-13, 0.0, 0.5, 1.0, 1.0 + 5e-13])
def test_stacked_clamp_equals_the_scalar_clamp_in_tolerance(target):
    row = _weights_with_entropy(target) if target != 0.5 else np.array([0.5, 0.25, 0.25])
    stack = np.array([row, np.full(3, 1.0 / 3.0), row])
    got = _weights_entropy(stack)
    assert got.tolist() == [_weights_entropy(r) for r in stack]
    assert 0.0 <= got.min() and got.max() <= 1.0


# --- streamed curve rows -----------------------------------------------------------


@pytest.mark.parametrize("points", [1, CURVE_CHUNK, 2 * CURVE_CHUNK + 1])
def test_curve_writes_one_text_chunk_per_grid_chunk(monkeypatch, tmp_path, capsys, points):
    chunks = []
    write = cli.write_text

    def recording_write(path, text):
        def tee():
            for chunk in text:
                chunks.append(chunk)
                yield chunk

        write(path, tee())

    monkeypatch.setattr(cli, "write_text", recording_write)
    out = tmp_path / "curve.csv"
    stop = repr((points - 1) * 0.5)
    argv = ["curve", "--family", "d4-real", "--from", "0", "--to", stop, "--step", "0.5"]
    assert main(argv + ["--output", str(out)]) == 0
    assert chunks[0] == "param_deg,entanglement\n"
    assert [c.count("\n") for c in chunks[1:]] == [
        min(CURVE_CHUNK, points - lo) for lo in range(0, points, CURVE_CHUNK)
    ]
    assert out.read_text() == "".join(chunks)
    rows = [tuple(map(float, line.split(","))) for line in out.read_text().splitlines()[1:]]
    best = max(rows, key=lambda row: row[1])  # the first row of greatest entanglement
    assert f"grid maximum: entanglement={best[1]:.15g} at param={best[0]:.15g}" in capsys.readouterr().out
