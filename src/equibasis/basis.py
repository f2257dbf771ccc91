"""Materialize the d^2 shifted basis states and verify them by brute force.

A coefficient vector a seeds the state with amplitude a_i on |i, i>.  The
(m, n) basis state applies the cyclic shift m times on the first system and
m+n times on the second, putting a_i on |i+m, i+m+n> (indices mod d).  A
full state is stored as the d x d amplitude matrix amp[j, k] for |j, k>.

Nothing here assumes the coefficients came from the Fourier synthesis:
orthonormality is checked by materializing all d^2 states and taking their
pairwise inner products, and entanglement is recomputed from the reduced
density matrix spectrum.  Both serve as independent oracles for the
shortcut formulas in :mod:`equibasis.core`, so neither uses the cyclic
autocorrelation, an FFT or the synthesis.  They exploit only the layout of
the states, and check that layout instead of assuming it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import NORM_TOL, ORTHO_TOL, _weights_entropy

# Reduced-state eigenvalues may round slightly below zero; anything more
# negative than this is rejected as non-physical.  eigvalsh of the unit-trace
# rho_A errs by about d * eps * |rho_A| <= 5.7e-14 at d = 256.  A basis
# state's rho_A is exactly diagonal and never reaches eigvalsh; measured on
# that route at d = 64/128/256: quadratic-phase states mixed by the DFT on
# the second system deviate from 1/d by at most 6.6e-16/7.8e-16/7.6e-16, and
# random rank-1 states have worst eigenvalues -3.8e-16/-7.2e-16/-8.0e-16.
EIGENVALUE_FLOOR = -1e-12


@dataclass(frozen=True)
class GramReport:
    """Maxima of |G - I| over the d^2 x d^2 Gram matrix of basis states.

    ``worst_pair`` holds the two (m, n) labels realizing the largest
    deviation from the identity.
    """

    d: int
    max_offdiag: float
    max_diag_dev: float
    worst_pair: tuple[tuple[int, int], tuple[int, int]]

    @property
    def passed(self) -> bool:
        return self.max_offdiag < ORTHO_TOL and self.max_diag_dev < ORTHO_TOL


def _support(d: int, m, n, i):
    """Cell (j, k) = ((i+m) mod d, (i+m+n) mod d) that carries a_i in state (m, n).

    The definition of the state layout that :func:`gram_check` lays out and
    checks; it broadcasts over integer arrays.  :func:`build_state` reads
    the same cells off a wrap table, and a test pins the two to each other.
    """
    return (i + m) % d, (i + m + n) % d


# One read-only table of 2d integers per d, at most 32 of them, least
# recently used dropped first, as for ``core._phase_matrix``.
@lru_cache(maxsize=32)
def _wrap(d: int) -> np.ndarray:
    """The index table w[t] = t mod d for t in [0, 2d)."""
    w = np.arange(2 * d) % d
    w.flags.writeable = False
    return w


def build_state(a: np.ndarray, m: int, n: int) -> np.ndarray:
    """Amplitude matrix of the (m, n) basis state.

    amp[(i+m) mod d, (i+m+n) mod d] = a_i; all other entries zero.  The
    cells are the layout of :func:`_support`, read as two slices
    w[m:m+d] and w[(m+n) mod d:...] of a cached wrap table w[t] = t mod d,
    so a state costs one allocation and one fancy assignment.
    """
    a = np.asarray(a, dtype=complex)
    d = a.size
    if not (0 <= m <= d - 1 and 0 <= n <= d - 1):
        raise ValueError(f"labels must be in [0, {d - 1}], got ({m}, {n})")
    w = _wrap(d)
    r = (m + n) % d
    amp = np.zeros((d, d), dtype=complex)
    amp[w[m : m + d], w[r : r + d]] = a
    return amp


def inner_product(x: np.ndarray, y: np.ndarray) -> complex:
    """<x|y> = sum_{j,k} conj(x[j,k]) * y[j,k], conjugate-linear in x.

    Unused by the library; kept for the tests, which import it from ``equibasis``.
    """
    x = np.asarray(x, dtype=complex)
    y = np.asarray(y, dtype=complex)
    if x.shape != y.shape:
        raise ValueError(f"dimension mismatch: {x.shape} vs {y.shape}")
    return complex(np.vdot(x, y))


def gram_check(a: np.ndarray) -> GramReport:
    """Brute-force orthonormality report for the d^2 states seeded by a.

    Lays out every state with the support map :func:`_support` and
    checks that each state of label n covers the wrapped diagonal
    k - j = n (mod d) once, so the d diagonals tile the d x d grid.  States
    of different n then share no cell, and their Gram entries are exactly
    zero.  Each same-n block <psi_mn|psi_m'n> is a direct sum over the d
    shared cells, formed one d x d block at a time in O(d^2) memory.  The
    block is fixed by the rows the map gives label n (state m puts a_i on
    row rows[m, i]), so a label whose rows equal those of the last block
    computed is checked but not multiplied again.  With the layout of
    :func:`_support` every label has the same rows: one product, and
    O(d^3 log d) time for the per-label checks; a map whose rows change
    with n costs O(d^4).  ``worst_pair`` breaks ties as the dense
    d^2 x d^2 matrix would, at the smallest row-major index
    (m*d + n, m'*d + n').

    Failure of orthonormality is reported in the maxima, never raised.
    Non-finite coefficients raise ValueError; a support map that breaks the
    layout raises RuntimeError.
    """
    a = np.asarray(a, dtype=complex)
    if not np.all(np.isfinite(a)):
        raise ValueError("coefficients must be finite")
    d = a.size
    m = np.arange(d)[:, None]
    i = np.arange(d)
    identity = np.eye(d)
    max_offdiag = 0.0  # the zero entries between different n
    max_diag_dev = 0.0
    worst = (1.0, 0, 0)  # least (-deviation, row, col) in the dense d^2 x d^2 matrix
    done = None  # the rows of the last block computed
    for n in range(d):
        rows, cols = _support(d, m, n, i)
        if np.any((cols - rows) % d != n) or np.any(np.sort(rows, axis=1) != i):
            raise RuntimeError(
                f"internal invariant violated: a state of label {n} does not "
                f"cover wrapped diagonal {n} exactly once"
            )
        # The block depends on n only through rows.  Equal rows give the same
        # maxima, and their ties sit at a larger row-major index than those
        # already folded in, so the report cannot change.
        if done is not None and np.array_equal(rows, done):
            continue
        done = rows
        # amp[m, j] is the amplitude of state (m, n) on cell (j, j+n).
        amp = np.zeros((d, d), dtype=complex)
        amp[m, rows] = a
        deviation = np.abs(amp.conj() @ amp.T - identity)

        r, c = divmod(int(np.argmax(deviation)), d)
        worst = min(worst, (-float(deviation[r, c]), r * d + n, c * d + n))
        max_diag_dev = max(max_diag_dev, float(deviation.diagonal().max()))
        np.fill_diagonal(deviation, 0.0)
        max_offdiag = max(max_offdiag, float(deviation.max()))

    _, row, col = worst
    return GramReport(
        d=d,
        max_offdiag=max_offdiag,
        max_diag_dev=max_diag_dev,
        worst_pair=((row // d, row % d), (col // d, col % d)),
    )


def state_entanglement(s: np.ndarray) -> float:
    """Base-d entropy of the reduced state of the first system.

    Forms rho_A = M @ M.conj().T from the amplitude matrix M, diagonalizes
    it, and returns -sum lam log_d lam.  This is the Schmidt-spectrum
    route, fully independent of the coefficient-modulus shortcut in
    :func:`equibasis.core.entanglement`: it reads only M, never the
    coefficients, an FFT or the synthesis.  The diagonal of rho_A, the row
    sums of |M|^2, comes from one ``vecdot`` of the real and imaginary
    parts of M with themselves, and the norm is summed from it.  When no
    column of M holds more than one nonzero entry (every basis state is
    such a monomial matrix), rho_A is exactly diagonal and these row sums
    are its spectrum; any other M is diagonalized.  The monomial test reads
    the float view too: a mask with one entry per cell, nonzero where the
    re or im part is, whose count of nonzero cells equals its count of
    nonzero columns exactly when every column has at most one.
    """
    s = np.asarray(s, dtype=complex)
    if s.ndim != 2 or s.shape[0] != s.shape[1]:
        raise ValueError(f"state must be a square amplitude matrix, got {s.shape}")
    d = s.shape[0]
    parts = np.ascontiguousarray(s).view(float)  # row j: re, im of M[j, 0], M[j, 1], ...
    rows = np.vecdot(parts, parts)
    total = float(np.add.reduce(rows))
    norm = math.sqrt(total)
    if not abs(norm - 1.0) <= NORM_TOL:  # also rejects NaN and inf
        raise ValueError(f"state is not normalized: |s| = {norm!r}")

    # One uint16 per cell, nonzero when its re or im part is (-0.0 counts as
    # zero).  Every nonzero column holds one nonzero cell exactly when the
    # two counts agree.
    cells = (parts != 0.0).view(np.uint16)
    if np.count_nonzero(cells) == np.count_nonzero(np.logical_or.reduce(cells, axis=0)):
        lam = rows / total
    else:
        lam = np.linalg.eigvalsh(s @ s.conj().T)
        if lam.min() < EIGENVALUE_FLOOR:
            raise ValueError(f"reduced state has negative eigenvalue {lam.min()!r}")
        lam = np.clip(lam, 0.0, None)
        lam = lam / lam.sum()
    return _weights_entropy(lam, d)


def shift_state(s: np.ndarray, row_shifts: int, col_shifts: int) -> np.ndarray:
    """Apply the cyclic shift to each axis: |j,k> -> |j+r, k+c| (mod d).

    Unused by the library; kept for the tests, which import it from ``equibasis``.
    """
    s = np.asarray(s, dtype=complex)
    d = s.shape[0]
    return np.roll(s, (row_shifts % d, col_shifts % d), axis=(0, 1))
