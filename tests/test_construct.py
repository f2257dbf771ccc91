"""Streamed `construct` output against the row-list builder it replaced.

`construct` writes each state as one chunk filled from d preformatted
coefficient strings.  The reference below is the earlier builder, kept here
the way the per-vector code is kept in ``test_batched.py``: all d^3 rows as
Python lists, serialised with ``json.dumps(indent=2)`` or one ``repr`` per
CSV field.  Every comparison is on bytes, for both formats and both
destinations (``--output`` file and stdout).
"""

import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equibasis import Family, entanglement, quadratic_phases
from equibasis.cli import build_parser, construct_chunks, main, resolve_source


def reference_construct(a: np.ndarray, desc: dict, e_value: float, fmt: str) -> str:
    """The `construct` data file built from the full d^3 row list."""
    d = a.size
    rows = []
    for m in range(d):
        for n in range(d):
            for i in range(d):
                rows.append(
                    [m, n, (i + m) % d, (i + m + n) % d, float(a[i].real), float(a[i].imag)]
                )
    if fmt == "json":
        payload = {
            "d": d,
            "source": desc,
            "entanglement": e_value,
            "coefficients": [[float(z.real), float(z.imag)] for z in a],
            "states": rows,
        }
        return json.dumps(payload, indent=2) + "\n"
    coeff_text = ";".join(f"{float(z.real)!r},{float(z.imag)!r}" for z in a)
    lines = [
        f"# d={d}",
        f"# entanglement={e_value!r}",
        f"# coefficients={coeff_text}",
        "m,n,j,k,re,im",
    ]
    lines += [f"{m},{n},{j},{k},{re!r},{im!r}" for m, n, j, k, re, im in rows]
    return "\n".join(lines) + "\n"


def expected_bytes(argv: list[str], fmt: str) -> bytes:
    """Reference output for a construct argv, from the CLI's own source resolution."""
    a, desc = resolve_source(build_parser().parse_args(argv))
    return reference_construct(a, desc, entanglement(a), fmt).encode("utf-8")


def assert_same(got: bytes, expected: bytes) -> None:
    """Equal bytes; a mismatch reports its first offset, not a full diff."""
    if got != expected:
        at = next((i for i, (x, y) in enumerate(zip(got, expected)) if x != y), None)
        at = min(len(got), len(expected)) if at is None else at
        pytest.fail(
            f"{len(got)} bytes vs {len(expected)} expected, first difference at {at}: "
            f"{got[max(at - 40, 0):at + 40]!r} vs {expected[max(at - 40, 0):at + 40]!r}"
        )


def assert_construct_matches(argv: list[str]) -> None:
    """File and stdout output of `construct` equal the reference, in both formats."""
    for fmt in ("json", "csv"):
        expected = expected_bytes(argv, fmt)
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / f"basis.{fmt}"
            assert main(argv + ["--format", fmt, "--output", str(out), "--quiet"]) == 0
            assert_same(out.read_bytes(), expected)
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            assert main(argv + ["--format", fmt]) == 0
        assert_same(stdout.getvalue().encode("utf-8"), expected)


def _phases_arg(theta) -> str:
    return ",".join(repr(float(t)) for t in theta)


@given(st.integers(min_value=2, max_value=12).flatmap(
    lambda d: st.lists(st.floats(0.0, 2 * math.pi), min_size=d, max_size=d)
))
@settings(max_examples=40, deadline=None)
def test_cli_output_matches_reference_for_random_phases(theta):
    assert_construct_matches(["construct", "--theta", _phases_arg(theta)])


# Each coefficient's real and imaginary part: kept, an exact zero or a negative zero.
_ZEROING = st.sampled_from(["keep", "zero", "negzero"])


@given(
    st.integers(min_value=2, max_value=12).flatmap(
        lambda d: st.tuples(
            st.lists(st.floats(0.0, 2 * math.pi), min_size=d, max_size=d),
            st.lists(st.tuples(_ZEROING, _ZEROING), min_size=d, max_size=d),
        )
    )
)
@settings(max_examples=60, deadline=None)
def test_chunks_match_reference_with_signed_zeros(case):
    theta, zeroing = case
    parts = np.exp(1j * np.array(theta)).view(float).reshape(-1, 2) / math.sqrt(len(theta))
    for row, kinds in zip(parts, zeroing):
        for col, kind in enumerate(kinds):
            if kind != "keep":
                row[col] = 0.0 if kind == "zero" else -0.0
    a = parts.view(complex).ravel()
    desc = {"coeffs": "hand-typed; \"quoted\" é"}
    e_value = 0.5
    for fmt in ("json", "csv"):
        assert_same(
            "".join(construct_chunks(a, desc, e_value, fmt)).encode("utf-8"),
            reference_construct(a, desc, e_value, fmt).encode("utf-8"),
        )


def test_chunks_are_one_per_state_plus_header_and_tail():
    a = np.full(5, 1 / math.sqrt(5), dtype=complex)
    for fmt in ("json", "csv"):
        assert len(list(construct_chunks(a, {}, 1.0, fmt))) == 5**2 + 2


def test_d32_random_phases():
    theta = np.random.default_rng(32).uniform(0.0, 2 * math.pi, 32)
    assert_construct_matches(["construct", "--theta", _phases_arg(theta)])


def test_d32_quadratic_phases():
    assert_construct_matches(["construct", "--theta", _phases_arg(quadratic_phases(32).theta)])


@pytest.mark.parametrize("param", ["0", "60", "90", "137.25", "270"])
@pytest.mark.parametrize("family", [f.value for f in Family])
def test_families(family, param):
    # parameter 0 of d3-real and d4-complex gives exact and negative zeros
    assert_construct_matches(["construct", "--family", family, "--param-deg", param])


def test_family_zero_parameters_hold_signed_zeros():
    real = Family.D3_REAL.coefficients(0.0)
    assert math.copysign(1.0, real[2].real) == -1.0 and real[1] == 0
    cplx = Family.D4_COMPLEX.coefficients(0.0)
    assert math.copysign(1.0, cplx[3].real) == -1.0
