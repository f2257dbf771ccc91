"""Numerical search for phase vectors with flat-modulus synthesis.

A phase vector theta is a maximally entangled endpoint exactly when every
synthesized coefficient has modulus 1/sqrt(d), i.e. when the unimodular
vector exp(i*theta)/sqrt(d) is biunimodular (its Fourier transform is also
flat).  No closed form is known in general, so this module searches
numerically: alternating projections between the two unit-modulus
constraints, connected by the transform, from random restarts.

:func:`iterate_projections` is the one sweep loop: it owns the synthesis,
the residual read off the extreme moduli, the stop rule and the sweep
count.  Each sweep that does not stop applies :func:`_ap_step`, which holds
the whole alternating-projection update: both projections, the transform
back, the ``ZERO_MODULUS`` tie-break and the gauge fix.

A search returns a candidate, which it does not certify itself:
:func:`verify_solution` (or ``equibasis verify --theta``) certifies it
through the brute-force oracles in :mod:`equibasis.basis`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .basis import GramReport, gram_check
from .core import PhaseVector, TWO_PI, _phase_matrix, _synthesize
from .core import FLATNESS_TOL, ORTHO_TOL, entanglement, flatness, synthesize_coefficients

# Moduli below this are projected with tie-break phase 0.  The tie-break
# guards the division z / |z| of a sweep against a modulus with no usable
# phase (0 / 0 is NaN), not against rounding: near a flat endpoint every
# modulus is about 1/sqrt(d) >= 0.031 for d <= 1024.  Measured minima, on
# both sides of the transform: 0.125 / 0.088 / 0.0625 / 0.044 / 0.031 for
# quadratic phases at d = 64 / 128 / 256 / 512 / 1024, and 0.128 / 0.089 /
# 0.063 / 0.044 / 0.031 for Bjorck phases at p = 61 / 127 / 251 / 509 / 1021;
# the families do not differ here, as both sit at 1/sqrt(d).  A coefficient
# that vanishes in exact arithmetic comes out as the rounding noise of its
# d-term sum, which exceeds 1e-15 from about d = 12 on (zero phases: 2.5e-15
# / 4.5e-15 / 1.1e-14 / 2.6e-14 / 4.1e-14 at d = 64 / 128 / 256 / 512 /
# 1024); such an entry keeps the phase of its noise, which is deterministic.
# So the tie-break is not "phase 0 for every vanishing coefficient": zero
# phases at d = 8 put all 7 off-peak moduli below 1e-15, at d = 64 16 of the
# 63 lie above it.  Moving the threshold would change search bits, the
# pinned thetas and bench/search_pool.json.
ZERO_MODULUS = 1e-15

# Certificate thresholds for a maximally entangled basis.  The residual bound
# is the flatness bound of :mod:`equibasis.core` (argued there).  The entropy
# of a flat vector departs from 1 only to second order in the modulus
# deviations, plus the rounding of a d-term sum (about d * eps = 2.3e-13 at
# d = 1024); measured |E - 1| for quadratic phases: 0 / 0 / 1.1e-16 / 0 / 0
# at d = 64 / 128 / 256 / 512 / 1024, and for Bjorck phases 0 / 0 / 0 /
# 1.1e-16 / 0 at p = 61 / 127 / 251 / 509 / 1021: one rounding step in both.
CERT_RESIDUAL_TOL = FLATNESS_TOL
CERT_ENTROPY_TOL = 1e-9


@dataclass(frozen=True)
class SearchConfig:
    """Reproducible search parameters; identical configs give identical results."""

    d: int
    max_iters: int = 10_000
    residual_tol: float = 1e-10
    restarts: int = 32
    rng_seed: int = 0

    def __post_init__(self) -> None:
        for name in ("d", "max_iters", "restarts", "rng_seed"):
            if not isinstance(getattr(self, name), (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}")
        if self.d < 2:
            raise ValueError(f"dimension must be >= 2, got {self.d}")
        if self.max_iters <= 0 or self.restarts <= 0:
            raise ValueError("iteration and restart counts must be positive")
        if self.residual_tol <= 0.0:
            raise ValueError("residual tolerance must be positive")
        if not math.isfinite(self.residual_tol):
            raise ValueError(f"residual tolerance must be finite, got {self.residual_tol}")
        if not 0 <= self.rng_seed < 2**64:  # the Philox key is unsigned 64-bit
            raise ValueError(f"seed must be in [0, 2**64), got {self.rng_seed}")


@dataclass(frozen=True)
class SearchResult:
    """Best phase vector found, with its flatness residual and provenance."""

    theta: PhaseVector
    residual: float
    iterations: int
    converged: bool
    restart_index: int


class CertificateCheck(NamedTuple):
    """One certificate check: it passes when value < tolerance (never on NaN)."""

    name: str
    value: float
    tolerance: float
    passed: bool


@dataclass(frozen=True)
class SolutionCertificate:
    """Bundled evidence for one coefficient vector: flatness residual,
    brute-force Gram report, and entanglement.  The entanglement is computed
    from the coefficients, and it is that of all d^2 states: the Gram
    oracle's layout check proves it (see :func:`equibasis.basis.gram_check`).

    :meth:`of` is the one assembly, ``checks`` the one certificate rule and
    ``maximal`` its verdict, used by :func:`verify_solution` and by the
    ``verify`` command.
    """

    residual: float
    gram: GramReport
    entanglement: float

    @classmethod
    def of(cls, a: np.ndarray, gram: GramReport) -> SolutionCertificate:
        """The certificate of coefficients a, with a's Gram report.

        The caller runs the Gram oracle, so that it can run it first: a
        broken basis layout then fails (``RuntimeError``) before any entropy
        is computed.
        """
        return cls(residual=flatness(a), gram=gram, entanglement=entanglement(a))

    @property
    def checks(self) -> tuple[CertificateCheck, ...]:
        """Gram off-diagonal, Gram diagonal, flatness residual and |E - 1|,
        each with its value and tolerance, in that order."""
        measured = (
            ("gram_max_offdiag", self.gram.max_offdiag, ORTHO_TOL),
            ("gram_max_diag_dev", self.gram.max_diag_dev, ORTHO_TOL),
            ("residual", self.residual, CERT_RESIDUAL_TOL),
            ("entanglement_deviation", abs(self.entanglement - 1.0), CERT_ENTROPY_TOL),
        )
        return tuple(CertificateCheck(name, v, tol, v < tol) for name, v, tol in measured)

    @property
    def maximal(self) -> bool:
        return all(check.passed for check in self.checks)


def _project_unimodular(z: np.ndarray, radius: float, mod: np.ndarray, lo: float) -> np.ndarray:
    """Nearest vector with all moduli equal to radius.

    A modulus below ``ZERO_MODULUS`` has no usable phase for the division
    z / |z|, so that entry becomes radius + 0j; every other entry keeps its
    own phase, rounding noise included.  ``mod`` is ``np.abs(z)`` and
    ``lo`` its minimum, which the sweep already holds.  When no modulus is
    below ``ZERO_MODULUS`` (the usual case) the tie-break is skipped; the
    result has the same bits either way.
    """
    if lo >= ZERO_MODULUS:
        return radius * z / mod
    safe = np.where(mod < ZERO_MODULUS, 1.0, mod)
    return np.where(mod < ZERO_MODULUS, radius + 0.0j, radius * z / safe)


def _ap_step(a: np.ndarray, mod: np.ndarray, lo: float, target: float,
             inverse: np.ndarray) -> np.ndarray:
    """One alternating-projection update of the phases that synthesize a.

    Snaps the moduli of a (``mod``, least ``lo``) flat at ``target``,
    transforms back to the phase side with ``inverse``, the conjugate
    transpose of the phase matrix, and snaps those moduli flat too: the
    result is the next phase vector, gauge-fixed to theta[0] = 0.
    """
    c = (inverse @ _project_unimodular(a, target, mod, lo)) / math.sqrt(a.size)
    th = np.arctan2(c.imag, c.real)  # what np.angle(c) computes, minus its wrapper
    # Phase 0 only where the modulus is below ZERO_MODULUS (the same guard
    # as the projection); a larger noise-level modulus keeps its phase.
    c_mod = np.abs(c)
    if not c_mod.min() >= ZERO_MODULUS:  # also NaN
        th = np.where(c_mod < ZERO_MODULUS, 0.0, th)
    return np.mod(th - th[0], TWO_PI)


def iterate_projections(
    theta: PhaseVector, max_iters: int, residual_tol: float
) -> tuple[PhaseVector, float, int]:
    """Alternating projections from one starting phase vector.

    The one sweep loop: each sweep synthesizes the coefficients, reads the
    flatness residual off their extreme moduli and, unless it stops, takes
    one :func:`_ap_step`.  Stops as soon as the residual drops below
    ``residual_tol`` (a flat start is a fixed point and returns after 0
    sweeps) or after ``max_iters`` sweeps (0 sweeps for ``max_iters <= 0``).
    """
    target = 1.0 / math.sqrt(theta.d)
    # A copy, 16*d^2 bytes for the whole run: applying the conjugate to the
    # projected vector b instead, conj(E @ conj(b)), changes the step's bits
    # at every d >= 4, since the BLAS kernel then sums the product in another
    # order.  conj(E.T @ conj(b)) keeps the copy's bits (OpenBLAS SkylakeX,
    # Haswell, Sandybridge and Prescott kernels; d = 2..69, 128, 255, 256, 512
    # and 1024, 20 vectors each), but its two conjugates cost 0.7-1.6 us more
    # a product at d = 6..64 (1.9-4.4 against 1.0-3.1 us; 2-vCPU Xeon VM, one
    # BLAS thread), 3-7 % of a sweep, where the emit benchmark's searches run
    # and its tail job moves with their sweep time.
    inverse = _phase_matrix(theta.d).conj().T
    th = theta.theta
    for iterations in itertools.count():
        a = _synthesize(th)
        mod = np.abs(a)
        # core.flatness from the extremes: x - target rounds monotonically in
        # x, so this is the same float; a NaN makes both extremes NaN.  The
        # loop keeps its own form because the step needs mod and lo, which
        # flatness would have to return for this caller only.
        hi, lo = mod.max(), mod.min()
        residual = float(max(hi - target, target - lo))
        if residual < residual_tol or iterations >= max_iters:
            return PhaseVector(th).canonical(), residual, iterations
        th = _ap_step(a, mod, lo, target, inverse)


_MASK64 = 2**64 - 1


def _restart_phases(d: int, rng_seed: int, restart_index: int) -> PhaseVector:
    """Uniform draw from [0, 2*pi)^d with theta[0] = 0.

    The draw is Philox4x64-10 (Salmon et al., "Parallel random numbers: as
    easy as 1, 2, 3", SC'11), a counter-based generator, so a (seed,
    restart) key reproduces the same start everywhere.  The 128-bit key is
    the two 64-bit words (seed, restart); the 256-bit counter starts at 0
    and is incremented before each block of four 64-bit words, so the first
    block uses counter 1 (d <= 2**66 never carries out of its low word).
    Each word x, in block order, becomes the 53-bit double
    (x >> 11) * 2**-53 in [0, 1), scaled by 2*pi.  These are the bits
    numpy's ``Generator(Philox(key=[seed, restart])).random(d)`` draws,
    which ``tests/test_restart_stream.py`` keeps as the reference, and
    Python integers compute them without importing numpy's random module:
    a cold ``equibasis search --d 8 --seed 3 --restarts 2`` peaks at
    30.2 MB RSS in a fresh interpreter, against 35.8 MB with numpy's
    generator (medians of 7 runs each; Python 3.11, numpy 2.4, 2-vCPU Xeon
    VM).
    """
    k0, k1 = int(rng_seed), int(restart_index)  # numpy integers would overflow
    words: list[int] = []
    for block in range(1, (d + 3) // 4 + 1):
        c0, c1, c2, c3 = block, 0, 0, 0
        r0, r1 = k0, k1
        for _ in range(10):  # the key bump after the last round is unused
            p0, p1 = 0xD2E7470EE14C6C93 * c0, 0xCA5A826395121157 * c2
            c0, c1, c2, c3 = (p1 >> 64) ^ c1 ^ r0, p1 & _MASK64, (p0 >> 64) ^ c3 ^ r1, p0 & _MASK64
            r0, r1 = (r0 + 0x9E3779B97F4A7C15) & _MASK64, (r1 + 0xBB67AE8584CAA73B) & _MASK64
        words += (c0, c1, c2, c3)
    th = TWO_PI * np.array([(x >> 11) * 2.0**-53 for x in words[:d]])
    th[0] = 0.0
    return PhaseVector(th)


def alternating_projection_search(cfg: SearchConfig) -> SearchResult:
    """Best flat-phase candidate over deterministic random restarts.

    Restarts run in index order and stop early once one converges: a
    converged restart already meets ``residual_tol``, so later restarts
    cannot improve on it materially.  Non-convergence is reported in the
    result, never raised.
    """
    best: SearchResult | None = None
    for restart in range(cfg.restarts):
        start = _restart_phases(cfg.d, cfg.rng_seed, restart)
        theta, residual, iterations = iterate_projections(
            start, cfg.max_iters, cfg.residual_tol
        )
        result = SearchResult(
            theta=theta,
            residual=residual,
            iterations=iterations,
            converged=residual < cfg.residual_tol,
            restart_index=restart,
        )
        if best is None or result.residual < best.residual:
            best = result
        if result.converged:
            break
    assert best is not None
    return best


def verify_solution(theta: PhaseVector) -> SolutionCertificate:
    """Independent certificate for a phase vector.

    Combines the flatness residual, the brute-force Gram check of all d^2
    states, and their one entanglement (why it is one value: see
    :func:`equibasis.basis.gram_check`), all read off one synthesis.
    ``maximal`` holds iff residual < ``CERT_RESIDUAL_TOL``, the Gram check
    passes, and |E - 1| < ``CERT_ENTROPY_TOL``.
    """
    a = synthesize_coefficients(theta)
    return SolutionCertificate.of(a, gram_check(a))
