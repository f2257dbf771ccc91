"""The oracles at their per-call floor, against the code they replaced.

``gram_check`` multiplies a same-n block only when its rows differ from
those of the last block computed; ``previous_gram_check`` is the body that
multiplied every block, and a support map whose rows change with n must
still match a dense Gram over the states that map lays out.
``state_entanglement`` tests for a monomial matrix on a per-cell mask of
the float view; the reference test is ``(s != 0).sum(axis=0).max() <= 1``
on the complex matrix, observed through whether ``eigvalsh`` runs.
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from equibasis import GramReport, PhaseVector, basis, gram_check, quadratic_phases
from equibasis import state_entanglement, synthesize_coefficients


def previous_gram_check(a: np.ndarray) -> GramReport:
    """Every same-n block multiplied, one label at a time."""
    a = np.asarray(a, dtype=complex)
    if not np.all(np.isfinite(a)):
        raise ValueError("coefficients must be finite")
    d = a.size
    m = np.arange(d)[:, None]
    i = np.arange(d)
    identity = np.eye(d)
    max_offdiag = 0.0
    max_diag_dev = 0.0
    for n in range(d):
        rows, cols = basis._support(d, np.arange(d), n)
        if np.any((cols - rows) % d != n) or np.any(np.sort(rows, axis=1) != i):
            raise RuntimeError(
                f"internal invariant violated: a state of label {n} does not "
                f"cover wrapped diagonal {n} exactly once"
            )
        amp = np.zeros((d, d), dtype=complex)
        amp[m, rows] = a
        deviation = np.abs(amp.conj() @ amp.T - identity)
        max_diag_dev = max(max_diag_dev, float(deviation.diagonal().max()))
        np.fill_diagonal(deviation, 0.0)
        max_offdiag = max(max_offdiag, float(deviation.max()))

    return GramReport(max_offdiag=max_offdiag, max_diag_dev=max_diag_dev)


def dense_gram_report(a: np.ndarray) -> GramReport:
    """The whole d^2 x d^2 Gram matrix of the states laid out by ``basis._support``."""
    a = np.asarray(a, dtype=complex)
    d = a.size
    states = np.zeros((d * d, d, d), dtype=complex)
    for m in range(d):
        for n in range(d):
            states[m * d + n][basis._support(d, m, n)] = a
    states = states.reshape(d * d, d * d)
    deviation = np.abs(states.conj() @ states.T - np.eye(d * d))
    max_diag_dev = float(deviation.diagonal().max())
    np.fill_diagonal(deviation, 0.0)
    return GramReport(max_offdiag=float(deviation.max()), max_diag_dev=max_diag_dev)


def gram_inputs(d: int) -> dict[str, np.ndarray]:
    rng = np.random.default_rng(1000 + d)
    generic = rng.normal(size=d) + 1j * rng.normal(size=d)
    unit = np.zeros(d, dtype=complex)
    unit[0] = 1.0
    pair = np.zeros(d, dtype=complex)
    pair[: min(d, 2)] = 1.0
    return {
        # The synthesis needs d >= 2; at d = 1 both are the unit vector.
        "random-phases": (
            synthesize_coefficients(PhaseVector(rng.uniform(0.0, 2.0 * math.pi, d)))
            if d >= 2 else unit
        ),
        "quadratic": synthesize_coefficients(quadratic_phases(d)) if d >= 2 else unit,
        "non-orthogonal": generic / np.linalg.norm(generic),
        "unnormalised": 1.5 * generic / np.linalg.norm(generic),
        # Exact arithmetic: every entry of |G - I| ties with others.
        "unit": unit,
        "flat-ones": np.ones(d, dtype=complex),
        "pair": pair,
        "gaussian-integers": rng.integers(-3, 4, d) + 1j * rng.integers(-3, 4, d),
    }


@pytest.mark.parametrize("d", range(1, 34))
def test_reports_equal_the_every_block_reference(d):
    for name, a in gram_inputs(d).items():
        assert gram_check(a) == previous_gram_check(a), name


def _relabel_m_for_odd_n(d, m, n):
    """State m of an odd label n takes the cells of state d-1-m."""
    m = np.asarray(m)[..., None]
    i = np.arange(d)
    m = (d - 1 - m) if n % 2 else m
    return (i + m) % d, (i + m + n) % d


def _reverse_odd_states_for_odd_n(d, m, n):
    """Also runs the cells of every odd state of an odd label backwards,
    so its blocks are no longer circulant."""
    m = np.asarray(m)[..., None]
    i = np.arange(d)
    m = (d - 1 - m) if n % 2 else m
    rows = np.where((n % 2 == 1) & (m % 2 == 1), (m - i) % d, (i + m) % d)
    return rows, (rows + n) % d


@pytest.mark.parametrize("support", [_relabel_m_for_odd_n, _reverse_odd_states_for_odd_n])
@pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 8, 11])
def test_rows_that_change_with_n_are_each_multiplied(monkeypatch, support, d):
    """Dense and blockwise reports agree bit for bit under the map.  The
    Gaussian-integer inputs keep every sum exact, so both orders give the
    same floats."""
    monkeypatch.setattr(basis, "_support", support)
    rng = np.random.default_rng(d)
    for _ in range(4):
        a = (rng.integers(-3, 4, d) + 1j * rng.integers(-3, 4, d)) / 4.0
        assert gram_check(a) == dense_gram_report(a) == previous_gram_check(a)


def test_changed_blocks_change_the_report(monkeypatch):
    """The reversed map moves a maximum, so skipping its blocks would show."""
    a = np.array([3, 1, -2, 0, 1, 2, -1], dtype=complex) / 4.0
    honest = gram_check(a)
    monkeypatch.setattr(basis, "_support", _reverse_odd_states_for_odd_n)
    changed = gram_check(a)
    assert changed == dense_gram_report(a)
    assert changed != honest


def test_every_label_is_still_checked(monkeypatch):
    """A map that breaks the layout only at the last label still raises."""
    honest = basis._support

    def broken_last(d, m, n):
        rows, cols = honest(d, m, n)
        return (rows, (cols + 1) % d) if n == d - 1 else (rows, cols)

    monkeypatch.setattr(basis, "_support", broken_last)
    with pytest.raises(RuntimeError, match="label 4"):
        gram_check(np.ones(5) / math.sqrt(5.0))


# --- monomial test ---------------------------------------------------------

TINY = (1e-170, -1e-170, 5e-324, -5e-324)


@st.composite
def sparse_matrices(draw):
    """Normalized d x d matrices, d = 1..48, whose cells are exact zeros of
    either sign, pure real, pure imaginary, both, or tiny (1e-170, 5e-324),
    so columns with zero, one and several nonzero cells all occur."""
    d = draw(st.integers(1, 48))
    seed = draw(st.integers(0, 2**32 - 1))
    density = draw(st.sampled_from([0.0, 0.5 / d, 1.0 / d, 2.0 / d, 0.3]))
    rng = np.random.default_rng(seed)
    re = np.where(rng.random((d, d)) < 0.5, -0.0, 0.0)
    im = np.where(rng.random((d, d)) < 0.5, -0.0, 0.0)
    kind = rng.integers(0, 3, (d, d))  # 0: re only, 1: im only, 2: both
    live = rng.random((d, d)) < density
    re = np.where(live & (kind != 1), rng.normal(size=(d, d)), re)
    im = np.where(live & (kind != 0), rng.normal(size=(d, d)), im)
    if not live.any():  # a state needs a nonzero cell
        re[rng.integers(d), rng.integers(d)] = 1.0
    s = re + 1j * im
    s = s / math.sqrt(float(np.sum(re * re + im * im)))
    s.real[re == 0.0] = re[re == 0.0]  # division keeps signed zeros; be explicit
    s.imag[im == 0.0] = im[im == 0.0]
    # Tiny parts after normalization, so they keep their value, and only in
    # place of a zero part, so the norm stays 1.
    for _ in range(draw(st.integers(0, 3))):
        j, k = rng.integers(d), rng.integers(d)
        part = s.real if rng.random() < 0.5 else s.imag
        if part[j, k] == 0.0:
            part[j, k] = TINY[rng.integers(len(TINY))]
    return s


def reference_monomial(s: np.ndarray) -> bool:
    return bool((s != 0).sum(axis=0).max() <= 1)


def takes_eigvalsh(s: np.ndarray) -> bool:
    eigvalsh = np.linalg.eigvalsh
    calls = []
    with mock.patch.object(np.linalg, "eigvalsh", lambda x: calls.append(1) or eigvalsh(x)):
        state_entanglement(s)
    return bool(calls)


def _column_of_real_and_imaginary():
    s = np.zeros((3, 3), dtype=complex)
    s[0, 1] = 0.6
    s[2, 1] = 0.8j
    return s


def _signed_zero_cells():
    s = np.diag(np.full(4, 0.5 + 0.0j))
    s[1, 0] = complex(-0.0, -0.0)
    s[3, 0] = complex(0.0, -0.0)
    s[2, 2] = complex(-0.0, 0.5)  # only the imaginary part is nonzero
    return s


def _tiny_beside_a_cell(value, imaginary):
    s = np.diag(np.full(4, 0.5 + 0.0j))
    s[3, 0] = complex(0.0, value) if imaginary else complex(value, 0.0)
    return s


@settings(max_examples=300, deadline=None)
@given(sparse_matrices())
@example(_column_of_real_and_imaginary())
@example(_signed_zero_cells())
@example(_tiny_beside_a_cell(1e-170, False))
@example(_tiny_beside_a_cell(-5e-324, True))
@example(np.array([[1.0 + 0.0j]]))
def test_monomial_mask_equals_the_complex_test(s):
    assert takes_eigvalsh(s) is not reference_monomial(s)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_cells_are_still_rejected_first(bad):
    s = np.diag(np.full(4, 0.5 + 0.0j))
    s[1, 0] = bad
    with pytest.raises(ValueError, match="not normalized"):
        state_entanglement(s)
