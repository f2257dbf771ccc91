"""Materialize the d^2 shifted basis states and verify them by brute force.

A coefficient vector a seeds the state with amplitude a_i on |i, i>.  The
(m, n) basis state applies the cyclic shift m times on the first system and
m+n times on the second, putting a_i on |i+m, i+m+n> (indices mod d).  A
full state is stored as the d x d amplitude matrix amp[j, k] for |j, k>.

Nothing here assumes the coefficients came from the Fourier synthesis:
orthonormality is checked on the layout of the d^2 states, one d x d block
of inner products per distinct row map (see :func:`gram_check`), and
entanglement is recomputed from the reduced density matrix spectrum.  Both
serve as independent oracles for the shortcut formulas in
:mod:`equibasis.core`, so neither uses the cyclic autocorrelation, an FFT
or the synthesis.  They exploit only the layout of the states, and check
that layout instead of assuming it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import NORM_TOL, ORTHO_TOL, _weights_entropy

# Reduced-state eigenvalues may round slightly below zero; anything more
# negative than this is rejected as non-physical.  eigvalsh of the unit-trace
# rho_A errs by about d * eps * |rho_A| <= 2.3e-13 at d = 1024.  A basis
# state's rho_A is exactly diagonal and never reaches eigvalsh; measured on
# that route, with the seed state mixed by the unitary DFT on the second
# system, its eigenvalues deviate from 1/d by at most
# 6.6e-16/7.8e-16/7.5e-16/7.4e-16/9.2e-16 for quadratic phases at
# d = 64/128/256/512/1024, and by 8.1e-16/1.1e-15/1.0e-15/1.4e-15/9.8e-16
# for Bjorck phases at p = 61/127/251/509/1021, up to twice the quadratic
# figure near 512.  Random rank-1 states have worst eigenvalues
# -3.1e-16/-5.7e-16/-5.1e-16/-1.2e-15/-1.8e-15 at d = 64 ... 1024.
EIGENVALUE_FLOOR = -1e-12


@dataclass(frozen=True)
class GramReport:
    """Maxima of |G - I| over the d^2 x d^2 Gram matrix of basis states."""

    max_offdiag: float
    max_diag_dev: float

    @property
    def passed(self) -> bool:
        return self.max_offdiag < ORTHO_TOL and self.max_diag_dev < ORTHO_TOL


# The read-only rotation table of the last d asked for, one at a time, for the
# same reason as ``core._phase_matrix``: every operation works at one d.  It
# is a window view of 2d integers, so no d x d array is stored.
@lru_cache(maxsize=1)
def _rotation(d: int) -> np.ndarray:
    """The d x d table R[s, t] = (s + t) mod d: row s is w[s:s+d] of w[t] = t mod d."""
    return np.lib.stride_tricks.sliding_window_view(np.arange(2 * d) % d, d)[:d]


def _support(d: int, m, n):
    """Rows j and k of the cells ((i+m) mod d, (i+m+n) mod d) of state (m, n).

    The one definition of the state layout: a_i sits on cell (j[i], k[i]),
    with j = R[m] and k = R[(m+n) mod d] the rows of the rotation table for
    labels in [0, d).  An int m gives two views of table rows, which
    :func:`build_state` reads.  A 1-d array of labels m gives one row per
    label in each: :func:`gram_check` lays out and checks the d states of a
    label n this way, and the ``construct`` writer takes its j and k
    columns from the labels (m, 0).
    """
    table = _rotation(d)
    return table[m], table[(m + n) % d]


def build_state(a: np.ndarray, m: int, n: int) -> np.ndarray:
    """Amplitude matrix of the (m, n) basis state.

    amp[(i+m) mod d, (i+m+n) mod d] = a_i; all other entries zero.  The
    cells are the two rotation-table rows that :func:`_support` returns for
    the labels, so a state costs two basic indexes, one allocation and one
    fancy assignment.
    """
    a = np.asarray(a, dtype=complex)
    d = a.size
    if not (0 <= m <= d - 1 and 0 <= n <= d - 1):
        raise ValueError(f"labels must be in [0, {d - 1}], got ({m}, {n})")
    amp = np.zeros((d, d), dtype=complex)
    amp[_support(d, m, n)] = a
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

    This docstring owns the proof of the paper's claims (i) and (ii) for the
    states :func:`_support` lays out.  For each label n it checks two things
    of the d states (m, n): the rows on which a state puts a_0, ..., a_{d-1}
    are a permutation of 0..d-1, and its columns are that same permutation
    shifted by n (k - j = n mod d).

    (i) The states are orthonormal when the report passes.  The d diagonals
    k - j = n tile the d x d grid, so states of different n share no cell
    and their Gram entries are exactly zero.  Each same-n block
    <psi_mn|psi_m'n> is a direct sum over the d shared cells, formed one
    d x d block at a time in O(d^2) memory.  The report holds the largest
    |G - I| entries over all blocks, and passes when both are below
    ``ORTHO_TOL``.

    (ii) Every state has the same entanglement.  With its rows a permutation
    and its columns the same permutation shifted by n, each of the d^2
    amplitude matrices is monomial with entries a_i: its reduced state is
    diagonal and its Schmidt spectrum is exactly {|a_i|^2}.  This holds for
    any a, orthonormal or not.  Every entanglement measure of a pure state
    is a function of that spectrum (Nielsen, PRL 1999; Vidal, J. Mod. Opt.
    2000), so the entanglement computed from a alone, the certificate's
    ``entanglement`` (:class:`equibasis.search.SolutionCertificate`) and
    ``verify``'s, is the entanglement of all d^2 states; a per-state entropy
    differs from it only by the rounding of its sum.  Callers run this check
    before any entropy, so a broken layout exits 4 before one is computed.

    The block is fixed by the rows the map gives label n (state m puts a_i
    on row rows[m, i]), so a label whose rows equal those of the last block
    computed has its diagonal checked but its rows neither sorted nor
    multiplied again.  With the layout of :func:`_support` every label has
    the same rows: one product, one sort, and O(d^2) work per label, O(d^3)
    in all, for the two row takes of the rotation table, the diagonal test
    and the comparison with the last rows; a map whose rows change with n
    costs O(d^4).  The report holds only the two maxima, so it does not
    depend on the order in which the labels are visited.

    Failure of orthonormality is reported in the maxima, never raised; a NaN
    Gram entry (coefficients whose products overflow) makes them NaN, and
    the report fails.  Coefficients that are not a nonempty 1-d vector, or
    not finite, raise ValueError; a support map that breaks the layout
    raises RuntimeError.
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim != 1 or a.size == 0:
        raise ValueError(f"coefficients must be a nonempty 1-d vector, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("coefficients must be finite")
    d = a.size
    labels = np.arange(d)
    identity = np.eye(d)
    max_offdiag = 0.0  # the zero entries between different n
    max_diag_dev = 0.0
    done = None  # the rows of the last block computed
    for n in range(d):
        rows, diff = _support(d, labels, n)
        diff = diff - rows  # k - j of each cell; rebinding frees the column array
        # The block depends on n only through rows.  Rows equal to the last
        # ones computed are already known to be permutations, so they are not
        # sorted again, and equal rows give the same maxima.  The wrapped
        # diagonal is checked at every label.
        fresh = done is None or not np.array_equal(rows, done)
        unsorted = fresh and np.any(np.sort(rows, axis=1) != labels)
        if unsorted or np.any((diff != n) & (diff != n - d)):
            raise RuntimeError(
                f"internal invariant violated: a state of label {n} does not "
                f"cover wrapped diagonal {n} exactly once"
            )
        if not fresh:
            continue
        done = rows
        # amp[m, j] is the amplitude of state (m, n) on cell (j, j+n).
        amp = np.zeros((d, d), dtype=complex)
        amp[labels[:, None], rows] = a
        deviation = np.abs(amp.conj() @ amp.T - identity)
        # np.maximum, not max: a NaN entry must reach the report and fail it.
        max_diag_dev = np.maximum(max_diag_dev, deviation.diagonal().max())
        np.fill_diagonal(deviation, 0.0)
        max_offdiag = np.maximum(max_offdiag, deviation.max())

    return GramReport(max_offdiag=float(max_offdiag), max_diag_dev=float(max_diag_dev))


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
