"""Complex-vector primitives for equi-entangled basis construction.

A basis state of two d-level systems is seeded by a unit-norm coefficient
vector (a_0, ..., a_{d-1}).  The whole family studied here is parameterized
by d real phases theta_alpha through a small Fourier synthesis:

    a_k = (1/d) * sum_alpha exp(i*theta_alpha) * xi^(k*alpha),
    xi  = exp(2*pi*i/d).

Equivalently, a is the unitary transform of the unimodular vector
c_alpha = exp(i*theta_alpha)/sqrt(d).  By Parseval the result is always
unit norm, and every cyclic autocorrelation at nonzero lag vanishes, which
is exactly the orthonormality condition for the shifted basis states.

All functions here are pure and operate on plain numpy arrays (complex128)
or on :class:`PhaseVector`.  The synthesis is a dense O(d^2) matrix-vector
product per vector; dimensions up to d = 1024 (``cli.MAX_DIMENSION``) are
accepted, and the tolerances below are argued at that size, where
d * eps = 2.3e-13 (eps = 2.2e-16).

The synthesis and the entropy also take a stack of vectors, shape (..., d),
and work along the last axis: :class:`PhaseVector` may hold such a stack,
:func:`synthesize_coefficients` maps it row by row through one stacked
matmul, and :func:`entanglement` returns one value per row.  Every row comes
out bit for bit as it would alone, so a batched caller writes the same
numbers as a per-vector loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

TWO_PI = 2.0 * math.pi

# Orthonormality working tolerance.  The Gram oracle forms each entry
# <psi|psi'> as a length-d sum of products of unit-norm coefficients, so its
# rounding error is at most about d * eps = 2.3e-13 at d = 1024 (eps =
# 2.2e-16), below 1e-12.  Worst measured |G - I| entry for quadratic phases:
# 2.7e-15 / 3.3e-15 / 7.4e-15 / 8.1e-15 / 1.2e-14 at d = 64 / 128 / 256 /
# 512 / 1024; for Bjorck phases (Bjorck 1985, 1990; flat at every odd prime
# p): 3.8e-15 / 6.5e-15 / 1.0e-14 / 1.8e-14 / 1.5e-14 at p = 61 / 127 / 251 /
# 509 / 1021.  The families differ most near 512, where Bjorck's entry is 2.2
# times the quadratic one; both stay more than 50 times below the bound.
ORTHO_TOL = 1e-12

# Largest norm deviation accepted by the entropy routines.  A norm summed
# from n squared moduli errs by at most about n * eps: 2.3e-13 for the d
# coefficients at d = 1024 and 2.3e-10 for the d^2 cells of a general state,
# both inside 1e-9.  Measured worst |norm - 1| of basis states, summed from
# the row sums of |s|^2 as :func:`equibasis.basis.state_entanglement` does.
# The sum depends only on the row order, that is on m, so the d states of
# label n = 0 give every value the d^2 states give.  Quadratic phases:
# 4.4e-16 / 6.7e-16 / 3.6e-15 / 3.1e-15 / 4.9e-15 at d = 64 / 128 / 256 /
# 512 / 1024, and 4.9e-15 over 200 random states at d = 1024.  Bjorck
# phases: 1.1e-15 / 1.2e-15 / 5.2e-15 / 6.4e-15 / 4.2e-15 at p = 61 / 127 /
# 251 / 509 / 1021.  Bjorck's deviation is up to 2.5 times the quadratic
# one (at 61, and twice it near 512); both stay 10^5 times below the bound.
NORM_TOL = 1e-9

# Largest flatness residual (see :func:`flatness`) of a flat-modulus vector:
# the preset check and the certificate both read it.  Each coefficient is a
# sum of d unit-modulus terms scaled by 1/d, so its modulus errs by at most
# about d * eps = 2.3e-13 at d = 1024, and the residual of an exact endpoint
# stays far below 1e-9.  Measured for quadratic phases: 2.3e-15 / 4.1e-15 /
# 5.6e-15 / 7.7e-15 / 1.4e-14 at d = 64 / 128 / 256 / 512 / 1024; for Bjorck
# phases: 2.8e-15 / 5.7e-15 / 7.2e-15 / 1.6e-14 / 1.4e-14 at p = 61 / 127 /
# 251 / 509 / 1021, twice the quadratic residual near 512.  The worst over
# all d = 2..1024 (quadratic, at d = 956) and over the 171 odd primes up to
# 1021 (Bjorck, at p = 503) is the same, 2.4e-14.
FLATNESS_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class PhaseVector:
    """d real phases in radians, stored reduced mod 2*pi by ``np.mod``.

    The stored phases lie in [0, 2*pi], with 2*pi reached only by that
    rounding: ``np.mod`` rounds a phase in (-ulp(2*pi)/2, 0) up to exactly
    2*pi, so ``PhaseVector(np.array([0.0, -1e-17])).theta[1] == TWO_PI``.
    :meth:`canonical` and the search step can produce such a phase too.

    A global phase is physically irrelevant, so the canonical gauge pins
    theta[0] = 0; use :meth:`canonical` to fix the gauge before comparing
    two phase vectors.  ``theta`` may also be a stack of phase vectors,
    shape (..., d); every operation acts on the last axis.
    """

    theta: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.theta)
        if np.iscomplexobj(arr):  # a cast to float would drop the imaginary parts
            raise ValueError("phases must be real")
        arr = np.asarray(arr, dtype=float)
        if arr.ndim == 0 or arr.shape[-1] < 2:
            raise ValueError("phase vector needs at least 2 entries")
        if not np.all(np.isfinite(arr)):
            raise ValueError("phases must be finite")
        # In range, np.mod returns its input with -0.0 made +0.0: so does + 0.0, faster.
        if arr.min(initial=0.0) >= 0.0 and arr.max(initial=0.0) < TWO_PI:
            arr = arr + 0.0
        else:
            arr = np.mod(arr, TWO_PI)
        arr.flags.writeable = False
        object.__setattr__(self, "theta", arr)

    @property
    def d(self) -> int:
        return self.theta.shape[-1]

    def canonical(self) -> "PhaseVector":
        """Gauge-fixed copy with theta[0] = 0."""
        return PhaseVector(self.theta - self.theta[..., :1])


def root_of_unity(d: int, p: int) -> complex:
    """Return exp(2*pi*i*p/d).

    Exactly 1+0j whenever p is a multiple of d; otherwise evaluated from
    the argument reduced mod d.

    Unused by the library; kept for the tests, which import it from ``equibasis``.
    """
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")
    r = p % d
    if r == 0:
        return complex(1.0, 0.0)
    angle = TWO_PI * r / d
    return complex(math.cos(angle), math.sin(angle))


# One matrix is cached: that of the last d asked for, 16*d^2 bytes, so at
# most 16 MB at d = 1024 (``cli.MAX_DIMENSION``).  A search also holds the
# conjugate transpose of it as a copy for its whole run
# (``search.iterate_projections``), so it holds 32 MB at d = 1024.  Every
# command and library operation works at one d (a curve's chunks, a search's
# sweeps, a construct, a verify), so the matrix stays cached for the whole
# operation and a change of d rebuilds it, releasing the old one.  A rebuild
# costs 0.17 / 0.55 / 1.9 / 39 ms at d = 64 / 128 / 256 / 1024 and gives the
# same bits.  It is built in place: the product, the quotient and the
# exponential share one array, so a build peaks at the integer table
# (8*d^2 bytes) plus one complex matrix, not two.
@lru_cache(maxsize=1)
def _phase_matrix(d: int) -> np.ndarray:
    """The d x d matrix E[j, alpha] = xi^(j*alpha), xi = exp(2*pi*i/d)."""
    j = np.arange(d)
    mat = 2j * np.pi * np.outer(j, j)
    mat /= d
    np.exp(mat, out=mat)
    mat.flags.writeable = False
    return mat


def _synthesize(theta: np.ndarray) -> np.ndarray:
    """Forward synthesis along the last axis of a (..., d) array of phases.

    A stack goes through one matmul over (d, 1) columns, which numpy
    evaluates as one BLAS matrix-vector product per row, so each row has the
    bits of the 1-d product.  A plain (n, d) @ (d, d) matrix product would
    not: its blocked summation differs in the last bits.

    Why a gemv and not an FFT: an FFT synthesis (``np.fft.ifft`` here and
    ``np.fft.fft`` in the search step) was measured on the ``emit``
    benchmark, seed 1 (2-vCPU AVX-512 Xeon VM, numpy 2.4, one BLAS thread;
    per-job medians of 15 in-process runs, four alternating rounds).  The
    d = 256 ``--interpolate`` curves went from 94-105 to 52-58 ms, but the
    d = 32 search went from 37-38 to 45-56 ms at the same 1027 sweeps, and
    the tail job (``job_p_hi_ms``) of two 20 s emit runs each went from
    15.3 / 16.0 to 22.6 / 19.5 ms, with ``jobs_per_s`` within the noise.
    All 14 emit searches of seed 1 kept their sweeps and restart index
    under the FFT bits.  Both sides of that A/B still reduced every chunk's
    phases with ``np.mod`` (about 1 ms of a 256-point chunk at d = 256),
    a pass :class:`PhaseVector` now skips for in-range phases.  After that
    change, with the gemv, emit seed 1's two d = 256 ``--interpolate`` jobs
    took 44-49 ms in process against 53-62 ms before it (medians of 6
    calls, three alternating rounds, one outlier of 59 ms); a repeat of
    the FFT A/B compares against the lower figure.
    """
    d = theta.shape[-1]
    return (_phase_matrix(d) @ np.exp(1j * theta)[..., None])[..., 0] / d


def synthesize_coefficients(phases: PhaseVector) -> np.ndarray:
    """Coefficients a_k = (1/d) * sum_alpha exp(i*theta_alpha) * xi^(k*alpha).

    The output is unit norm (Parseval) and has vanishing cyclic
    autocorrelation at every nonzero lag, both to rounding error.  A stacked
    phase vector of shape (..., d) gives coefficients of the same shape.
    """
    return _synthesize(phases.theta)


def autocorrelation(a: np.ndarray, m: int) -> complex:
    """Cyclic autocorrelation sum_i conj(a_i) * a_{(i+m) mod d}.

    Orthonormality of the shifted basis states is equivalent to this being
    delta_{m,0} for m = 0, ..., d-1.
    """
    a = np.asarray(a, dtype=complex)
    d = a.size
    if not 0 <= m <= d - 1:
        raise ValueError(f"lag must be in [0, {d - 1}], got {m}")
    return complex(np.vdot(a, np.roll(a, -m)))


def entanglement(a: np.ndarray) -> float | np.ndarray:
    """Entropy of the squared moduli, -sum |a_i|^2 log_d |a_i|^2, in [0, 1].

    Logarithms are base d, so a flat-modulus vector scores exactly 1 in any
    dimension; a single nonzero entry scores 0 (with 0*log(0) = 0).  Raises
    if the input norm deviates from 1 by more than ``NORM_TOL``.  Works
    along the last axis: a 1-d vector gives a float, a stack of shape
    (..., d) an array of shape (...), each row as it would alone.
    """
    a = np.asarray(a, dtype=complex)
    weights = np.abs(a) ** 2
    total = weights.sum(axis=-1, keepdims=True)
    norm = np.sqrt(total)
    off = ~(np.abs(norm - 1.0) <= NORM_TOL)  # also rejects NaN and inf
    if off.any():
        raise ValueError(f"coefficient vector is not normalized: |a| = {float(norm[off][0])!r}")
    return _weights_entropy(weights / total)


def flatness(a: np.ndarray) -> float:
    """Flatness residual max_k | |a_k| - 1/sqrt(d) |, zero exactly at flat moduli.

    The one definition read by the certificate, ``verify`` and the preset
    check; the search sweep takes the same float from the moduli's extremes.
    """
    return float(np.max(np.abs(np.abs(a) - 1.0 / math.sqrt(a.size))))


def _weights_entropy(weights: np.ndarray) -> float | np.ndarray:
    """Base-d entropy of probability vectors along the last axis, clamped to [0, 1].

    The weights are nonnegative.  A 1-d vector gives a float, a stack of
    shape (..., d) an array of shape (...).  Zero weights are left out of
    the sum.  For d >= 8 numpy's pairwise sum groups terms by position, so a
    zero summed in place could move the last bit; a row holding a zero
    weight is therefore summed over its positive terms alone.  At d = 1,
    where the base-d logarithm is undefined, every state is a product state
    and scores 0.
    """
    d = weights.shape[-1]
    if d == 1:
        return 0.0 if weights.ndim == 1 else np.zeros(weights.shape[:-1])
    if np.count_nonzero(weights) == weights.size:
        total = np.add.reduce(weights * np.log(weights), axis=-1)
    else:
        positive = weights > 0.0
        nonzero = weights[positive]
        terms = nonzero * np.log(nonzero)
        ends = np.cumsum(positive.sum(axis=-1)).ravel()[:-1]
        total = np.reshape([row.sum() for row in np.split(terms, ends)], weights.shape[:-1])
    log_d = math.log(d)
    if weights.ndim == 1:
        return _clamp_entropy(-float(total) / log_d)
    e = -total / log_d
    bad = ~((-ORTHO_TOL <= e) & (e <= 1.0 + ORTHO_TOL))  # also NaN
    if bad.any():
        _clamp_entropy(float(e[bad][0]))  # raises, naming the first offending value
    return np.where(e <= 0.0, 0.0, np.minimum(e, 1.0))


def _clamp_entropy(e: float) -> float:
    """One entropy value clamped to [0, 1].

    A value outside the range by more than ``ORTHO_TOL``, or NaN, cannot come
    from normalised weights, so it raises ``RuntimeError`` (an internal error).
    The stacked branch of :func:`_weights_entropy` applies the same rule to
    all rows at once.
    """
    if not -ORTHO_TOL <= e <= 1.0 + ORTHO_TOL:
        raise RuntimeError(f"entropy {e!r} outside [0, 1] beyond tolerance")
    return 0.0 if e <= 0.0 else min(e, 1.0)
