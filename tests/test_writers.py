"""Chunk-at-a-time writers of `curve` and `construct` against their per-row forms.

`curve` formats each chunk of grid points with one ``%`` template and
`construct` joins each state from a table of row tails.  The references
below are the code they replaced: one ``f"{p:.15g},{e:.15g}\\n"`` per curve
row, and the previous ``construct_chunks`` body, which built every row as
its own string.  Every comparison is on the exact text, chunk by chunk.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from equibasis.cli import CURVE_CHUNK, _ROW_LAYOUT, construct_chunks, curve_rows


def reference_curve_rows(points: np.ndarray, values: np.ndarray) -> str:
    """One f-string per CSV row."""
    return "".join([f"{p:.15g},{e:.15g}\n" for p, e in zip(points.tolist(), values.tolist())])


def reference_construct_chunks(a: np.ndarray, desc: dict, e_value: float, fmt: str):
    """Header, one chunk of d per-row strings per state, tail."""
    d = a.size
    pairs = [(float(z.real), float(z.imag)) for z in a]
    if fmt == "json":
        payload = {
            "d": d,
            "source": desc,
            "entanglement": e_value,
            "coefficients": [list(p) for p in pairs],
            "states": [],
        }
        head, tail = json.dumps(payload, indent=2).rsplit("[]", 1)
        head, tail = head + "[\n", "\n  ]" + tail + "\n"
    else:
        coeff_text = ";".join(f"{re!r},{im!r}" for re, im in pairs)
        head = f"# d={d}\n# entanglement={e_value!r}\n# coefficients={coeff_text}\nm,n,j,k,re,im\n"
        tail = "\n"
    opening, sep, closing, row_sep = _ROW_LAYOUT[fmt]
    cells = [f"{sep}{re!r}{sep}{im!r}{closing}" for re, im in pairs]
    labels = [str(x) for x in range(d)]

    yield head
    before = ""
    for m in range(d):
        js = [j + sep for j in labels[m:] + labels[:m]]
        for n in range(d):
            r = (m + n) % d
            ks = labels[r:] + labels[:r]
            lead = f"{opening}{m}{sep}{n}{sep}"
            yield before + row_sep.join([lead + j + k + c for j, k, c in zip(js, ks, cells)])
            before = row_sep
    yield tail


def assert_same_text(got: str, want: str) -> None:
    """Equal text; a mismatch reports its first offset, not a full diff."""
    if got != want:
        at = next((i for i, (x, y) in enumerate(zip(got, want)) if x != y), None)
        at = min(len(got), len(want)) if at is None else at
        pytest.fail(
            f"{len(got)} chars vs {len(want)} expected, first difference at {at}: "
            f"{got[max(at - 40, 0):at + 40]!r} vs {want[max(at - 40, 0):at + 40]!r}"
        )


# Values whose shortest or 15-digit form is an edge case: signed zeros,
# subnormals, the 1e15/1e16 switch to exponent notation, integers, values
# that need 17 digits, and the non-finite values.
EDGE_VALUES = [
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 2.225073858507201e-308,
    1e15, 1e15 - 1.0, 1e15 + 0.5, 999999999999999.9, 1e16, 1e16 - 2.0, 9999999999999998.0,
    2.0**53, 2.0**53 + 2.0, 1.0, 3.0, 360.0, -7.0, 1e-5, 1e-4, 0.0001234567890123456,
    0.1 + 0.2, 1.0 / 3.0, 2.0 / 3.0, 1.0 - 2.0**-53, 1.0 + 2.0**-52, 0.30000000000000004,
    123456789012345.67, 1.7976931348623157e308, math.inf, -math.inf, math.nan,
]

curve_values = st.one_of(st.sampled_from(EDGE_VALUES), st.floats(), st.floats(0.0, 1.0))


@st.composite
def curve_columns(draw, n):
    """n values per column, drawn from a small pool and from random bit patterns."""
    pool = np.array(draw(st.lists(curve_values, min_size=1, max_size=12)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    columns = pool[rng.integers(pool.size, size=(2, n))]
    bit_patterns = rng.integers(0, 2**64, size=(2, n), dtype=np.uint64).view(float)
    use_bits = rng.random((2, n)) < draw(st.sampled_from([0.0, 0.5]))
    columns[use_bits] = bit_patterns[use_bits]
    return columns


@given(st.data(), st.sampled_from([1, CURVE_CHUNK - 1, CURVE_CHUNK]))
@settings(max_examples=100, deadline=None)
def test_curve_chunk_equals_per_row_reference(data, n):
    points, values = data.draw(curve_columns(n))
    assert_same_text(curve_rows(points, values), reference_curve_rows(points, values))


def test_curve_chunk_of_every_edge_value_pair():
    grid = np.array([(p, e) for p in EDGE_VALUES for e in EDGE_VALUES])
    for lo in range(0, len(grid), CURVE_CHUNK):
        points, values = grid[lo : lo + CURVE_CHUNK, 0], grid[lo : lo + CURVE_CHUNK, 1]
        assert_same_text(curve_rows(points, values), reference_curve_rows(points, values))


# Coefficient parts, including signed zeros and parts whose repr switches form.
coefficient_parts = st.one_of(
    st.sampled_from([0.0, -0.0, 1e-16, -1e-300, 5e-324, 0.5, -0.25, 1e16]),
    st.floats(-1.0, 1.0),
)


@st.composite
def construct_inputs(draw):
    d = draw(st.integers(2, 40))
    seed = draw(st.integers(0, 2**32 - 1))
    a = np.random.default_rng(seed).normal(size=(d, 2))
    for _ in range(draw(st.integers(0, 6))):
        i, part = draw(st.integers(0, d - 1)), draw(st.integers(0, 1))
        a[i, part] = draw(coefficient_parts)
    fmt = draw(st.sampled_from(["json", "csv"]))
    e_value = draw(st.floats(0.0, 1.0))
    return a.view(complex)[:, 0], e_value, fmt


@given(construct_inputs())
@example((np.array([complex(-0.0, -0.0), 1.0]), 0.0, "json"))
@example((np.array([complex(-0.0, -0.0), 1.0]), 0.0, "csv"))
@example((np.full(40, complex(-0.0, 0.5)), 1.0, "json"))
@settings(max_examples=40, deadline=None)
def test_construct_chunks_equal_per_row_reference(case):
    a, e_value, fmt = case
    desc = {"theta_rad": [0.0, -0.0]}
    got = list(construct_chunks(a, desc, e_value, fmt))
    want = list(reference_construct_chunks(a, desc, e_value, fmt))
    assert len(got) == len(want) == a.size**2 + 2
    for got_chunk, want_chunk in zip(got, want):
        assert_same_text(got_chunk, want_chunk)
