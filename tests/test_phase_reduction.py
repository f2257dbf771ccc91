"""``PhaseVector`` stores the bits of ``np.mod(theta, TWO_PI)`` for every
finite input, and calls ``np.mod`` only when some phase is out of range.

The oracle is ``np.mod`` itself.  For a phase already in [0, 2*pi) it
returns the phase unchanged (``fmod`` is exact there), save that -0.0 becomes
+0.0; ``theta + 0.0`` gives the same bits in a fresh array.  ``np.mod``
rounds a phase in (-ulp(2*pi)/2, 0) up to exactly 2*pi, so the stored range
is [0, 2*pi], with 2*pi reached only by that rounding.

What the skipped pass costs (2-vCPU AVX-512 Xeon VM, numpy 2.4, best of 5
timeit rounds): ``np.mod`` runs numpy's divmod loop at 13-16 ns per element,
1.05 ms on a 256-point chunk of ``curve --interpolate`` at d = 256, where the
range check and the copy take 0.04 ms.  Every chunk of t * theta0, t in
[0, 1], is in range.  ``search.iterate_projections`` keeps its plain
``np.mod``: its input ``th - th[0]`` is signed on every sweep, and at
d <= 32 the two reductions of the range check (1.8-1.9 us) cost more than
the ``np.mod`` they would skip (1.1-1.6 us).
"""

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from equibasis import PhaseVector
from equibasis.core import TWO_PI
from equibasis.families import interpolate, quadratic_phases

in_range = st.floats(min_value=0.0, max_value=TWO_PI, exclude_max=True)
any_finite = st.floats(allow_nan=False, allow_infinity=False)
SPECIAL = [-0.0, TWO_PI, -5e-324, -1e-17, 1e6, -1e6]


def phase_arrays(elements):
    """1-d arrays of at least 2 phases, and stacks of shape (n, d), n >= 0."""
    shapes = st.one_of(
        st.tuples(st.integers(2, 8)),
        st.tuples(st.integers(0, 4), st.integers(2, 6)),
    )
    return hnp.arrays(np.float64, shapes, elements=elements)


@given(phase_arrays(st.one_of(in_range, any_finite, st.sampled_from(SPECIAL))))
@example(np.array(SPECIAL))
@example(np.array([-0.0, 1.0]))
@example(np.array([0.0, -1e-17]))
@example(np.empty((0, 5)))
def test_stores_np_mod_bits_in_a_fresh_read_only_array(x):
    theta = PhaseVector(x).theta
    assert np.array_equal(theta.view(np.int64), np.mod(x, TWO_PI).view(np.int64))
    assert not theta.flags.writeable
    assert not np.shares_memory(theta, x)
    assert x.flags.writeable


@given(
    st.lists(st.lists(in_range, min_size=4, max_size=4), min_size=1, max_size=6),
    st.lists(any_finite, min_size=3, max_size=3),
)
@example([[-0.0, 1.0, 2.0, 3.0]], [7.0, -0.0, -1e-17])
def test_each_row_of_a_mixed_stack_is_as_alone(rows, rest):
    """A stack holding one out-of-range row takes the np.mod branch for all
    rows; each in-range row still has the bits it gets when built alone,
    where it takes the other branch."""
    stack = np.array([*rows, [-1.0, *rest]])
    theta = PhaseVector(stack).theta
    for row, alone in zip(theta, stack):
        assert np.array_equal(row.view(np.int64), PhaseVector(alone).theta.view(np.int64))


def test_a_tiny_negative_phase_is_stored_as_two_pi():
    theta = PhaseVector(np.array([0.0, -1e-17])).theta
    assert theta[1] == TWO_PI


@pytest.fixture
def mod_calls(monkeypatch):
    calls = []
    real_mod = np.mod

    def counting_mod(*args, **kwargs):
        calls.append(args)
        return real_mod(*args, **kwargs)

    monkeypatch.setattr(np, "mod", counting_mod)
    return calls


def test_an_interpolation_stack_skips_np_mod(mod_calls):
    theta0 = quadratic_phases(64)
    mod_calls.clear()
    interpolate(theta0, np.linspace(0.0, 1.0, 256))
    assert mod_calls == []


def test_an_out_of_range_vector_calls_np_mod_once(mod_calls):
    PhaseVector(np.array([-1.0, 7.0]))
    assert len(mod_calls) == 1
