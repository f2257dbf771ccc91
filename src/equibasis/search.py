"""Numerical search for phase vectors with flat-modulus synthesis.

A phase vector theta is a maximally entangled endpoint exactly when every
synthesized coefficient has modulus 1/sqrt(d), i.e. when the unimodular
vector exp(i*theta)/sqrt(d) is biunimodular (its Fourier transform is also
flat).  No closed form is known in general, so this module searches
numerically: alternating projections between the two unit-modulus
constraints, connected by the transform, from random restarts.

Every claimed solution is re-verified through the brute-force oracles in
:mod:`equibasis.basis`; see :func:`verify_solution`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .basis import GramReport, gram_check
from .core import PhaseVector, TWO_PI, _phase_matrix, _synthesize
from .core import entanglement, synthesize_coefficients

# Moduli below this are projected with tie-break phase 0 (measure-zero event).
ZERO_MODULUS = 1e-15

# Certificate thresholds for a maximally entangled basis.
CERT_RESIDUAL_TOL = 1e-9
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
        if self.d < 2:
            raise ValueError(f"dimension must be >= 2, got {self.d}")
        if self.max_iters <= 0 or self.restarts <= 0:
            raise ValueError("iteration and restart counts must be positive")
        if self.residual_tol <= 0.0:
            raise ValueError("residual tolerance must be positive")


@dataclass(frozen=True)
class SearchResult:
    """Best phase vector found, with its flatness residual and provenance."""

    theta: PhaseVector
    residual: float
    iterations: int
    converged: bool
    restart_index: int


@dataclass(frozen=True)
class SolutionCertificate:
    """Bundled evidence for one phase vector: flatness residual, brute-force
    Gram report, and entanglement of the seed state."""

    residual: float
    gram: GramReport
    entanglement: float

    @property
    def gram_pass(self) -> bool:
        return self.gram.passed

    @property
    def maximal(self) -> bool:
        return (
            self.residual < CERT_RESIDUAL_TOL
            and self.gram_pass
            and abs(self.entanglement - 1.0) < CERT_ENTROPY_TOL
        )


def flatness_residual(theta: PhaseVector) -> float:
    """max_k | |a_k| - 1/sqrt(d) | for the synthesized coefficients.

    Zero means a maximally entangled endpoint; the all-zero phases score
    1 - 1/sqrt(d), the largest value the synthesis can produce.
    """
    a = synthesize_coefficients(theta)
    return float(np.max(np.abs(np.abs(a) - 1.0 / math.sqrt(theta.d))))


def _project_unimodular(z: np.ndarray, radius: float, mod: np.ndarray) -> np.ndarray:
    """Nearest vector with all moduli equal to radius; phase 0 on ties.

    ``mod`` is ``np.abs(z)``, which the caller already holds.  When no
    modulus is below ``ZERO_MODULUS`` (the usual case) the tie-break is
    skipped; the result has the same bits either way.
    """
    if mod.min() >= ZERO_MODULUS:
        return radius * z / mod
    safe = np.where(mod < ZERO_MODULUS, 1.0, mod)
    return np.where(mod < ZERO_MODULUS, radius + 0.0j, radius * z / safe)


def iterate_projections(
    theta: PhaseVector, max_iters: int, residual_tol: float
) -> tuple[PhaseVector, float, int]:
    """Alternating projections from one starting phase vector.

    Each sweep synthesizes the coefficients, snaps their moduli flat,
    transforms back to the phase side, and snaps those moduli flat too,
    yielding a new gauge-fixed theta.  Stops as soon as the flatness
    residual drops below ``residual_tol`` (a flat start is a fixed point
    and returns after 0 sweeps) or after ``max_iters`` sweeps.
    """
    d = theta.d
    target = 1.0 / math.sqrt(d)
    inverse = _phase_matrix(d).conj().T
    th = theta.theta.copy()
    iterations = 0
    while True:
        a = _synthesize(th)
        mod = np.abs(a)
        residual = float(np.max(np.abs(mod - target)))
        if residual < residual_tol or iterations >= max_iters:
            break
        b = _project_unimodular(a, target, mod)
        c = (inverse @ b) / math.sqrt(d)
        th = np.angle(c)
        c_mod = np.abs(c)
        if not c_mod.min() >= ZERO_MODULUS:  # also NaN
            th = np.where(c_mod < ZERO_MODULUS, 0.0, th)
        th = np.mod(th - th[0], TWO_PI)
        iterations += 1
    return PhaseVector(th).canonical(), residual, iterations


def _restart_phases(d: int, rng_seed: int, restart_index: int) -> PhaseVector:
    """Uniform draw from [0, 2*pi)^d with theta[0] = 0.

    Philox is counter-based and platform-independent, so a (seed, restart)
    key reproduces the same start everywhere.
    """
    key = np.array([rng_seed, restart_index], dtype=np.uint64)
    rng = np.random.Generator(np.random.Philox(key=key))
    th = TWO_PI * rng.random(d)
    th[0] = 0.0
    return PhaseVector(th)


def alternating_projection_search(cfg: SearchConfig) -> SearchResult:
    """Best flat-phase candidate over deterministic random restarts.

    Restarts run in index order and stop early once one converges: a
    converged restart already certifies a solution at ``residual_tol``, so
    later restarts cannot improve on it materially.  Non-convergence is
    reported in the result, never raised.
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
    states, and the entanglement of the seed state.  ``maximal`` holds iff
    residual < 1e-9, the Gram check passes, and |E - 1| < 1e-9.
    """
    a = synthesize_coefficients(theta)
    return SolutionCertificate(
        residual=flatness_residual(theta),
        gram=gram_check(a),
        entanglement=entanglement(a),
    )
