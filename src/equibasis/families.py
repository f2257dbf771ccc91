"""Closed-form coefficient families and known flat-phase endpoints.

The low-dimensional families below solve the cyclic-autocorrelation
orthonormality system in closed form, each tracing a one-parameter curve of
equi-entangled bases.  The preset catalog holds phase vectors whose
synthesized coefficients have flat moduli (maximally entangled endpoints),
verified numerically on construction; scaling the phases by t in [0, 1]
interpolates from the product basis to that endpoint.
"""

from __future__ import annotations

import enum
import math

import numpy as np

from .core import FLATNESS_TOL, PhaseVector, flatness, synthesize_coefficients


def family_d3_real(phi: float | np.ndarray) -> np.ndarray:
    """Real qutrit family: one-parameter solution of the d=3 system.

    a_0 = (sin+cos)cos / (1 + sin*cos),
    a_1 = (sin+cos)sin / (1 + sin*cos),
    a_2 = -sin*cos    / (1 + sin*cos).

    The denominator never vanishes (sin*cos >= -1/2).  phi = 0 gives the
    product state (1, 0, 0).  A float gives shape (3,), an array of n
    parameters the (n, 3) stack.
    """
    s, c = np.sin(phi), np.cos(phi)
    denom = 1.0 + s * c
    return np.stack(
        [(s + c) * c / denom, (s + c) * s / denom, -s * c / denom], axis=-1, dtype=complex
    )


def family_d3_complex(phi: float | np.ndarray) -> np.ndarray:
    """Complex qutrit family N * (2cos(phi), -exp(i*phi), 2cos(phi)).

    N = 1/sqrt(1 + 8cos^2(phi)).  Flat moduli (maximal entanglement) at
    phi = pi/3; product state at phi = pi/2.  A float gives shape (3,), an
    array of n parameters the (n, 3) stack.
    """
    c = np.cos(phi)
    n = 1.0 / np.sqrt(1.0 + 8.0 * c * c)
    return np.stack([2.0 * c * n, -np.exp(1j * phi) * n, 2.0 * c * n], axis=-1, dtype=complex)


def family_d4_real(theta: float | np.ndarray) -> np.ndarray:
    """Real d=4 family (cos, 1+sin, -cos, 1-sin)/2.

    Maximally entangled at theta = 0, product state at theta = pi/2.  Not
    the only solution of the d=4 real system, just the curve used here.  A
    float gives shape (4,), an array of n parameters the (n, 4) stack.
    """
    s, c = np.sin(theta), np.cos(theta)
    return np.stack([c, 1.0 + s, -c, 1.0 - s], axis=-1, dtype=complex) / 2.0


def family_d4_complex(theta: float | np.ndarray) -> np.ndarray:
    """Complex d=4 family with a_0 = (1 + exp(i*theta)cos(theta))/2.

    The remaining entries share one modulus: a_1 = exp(i*theta)sin(theta)/2,
    a_2 = a_1/i, a_3 = -a_1.  Product state at theta = 0, maximally
    entangled at theta = pi/2.  A float gives shape (4,), an array of n
    parameters the (n, 4) stack.
    """
    # The factor 0.5 comes second: numpy's loop for a scalar times a complex
    # array can round a subnormal imaginary part to -0.0 where the product of
    # two scalars gives +0.0 (theta = -5e-324).
    s = np.exp(1j * theta) * 0.5 * np.sin(theta)
    a0 = (1.0 + np.exp(1j * theta) * np.cos(theta)) * 0.5
    return np.stack([a0, s, s / 1j, -s], axis=-1, dtype=complex)


def family_d4_complex_entropy(theta: float) -> float:
    """Closed-form entanglement of :func:`family_d4_complex`.

    The Schmidt weights are lam0 = (1 + 3cos^2(theta))/4 once and
    lam1 = sin^2(theta)/4 three times, giving

        E = -lam0*log4(lam0) - 3*lam1*log4(lam1).

    Independent of the generic entropy path; used to cross-check it.
    """
    lam0 = (1.0 + 3.0 * math.cos(theta) ** 2) / 4.0
    lam1 = math.sin(theta) ** 2 / 4.0
    log4 = math.log(4.0)
    e = -lam0 * math.log(lam0) / log4
    if lam1 > 0.0:
        e -= 3.0 * lam1 * math.log(lam1) / log4
    return e


class Family(enum.Enum):
    """The four closed-form one-parameter families: each member is its CLI
    name and its closed form."""

    D3_REAL = "d3-real", family_d3_real
    D3_COMPLEX = "d3-complex", family_d3_complex
    D4_REAL = "d4-real", family_d4_real
    D4_COMPLEX = "d4-complex", family_d4_complex

    def __new__(cls, value: str, closed_form) -> Family:
        member = object.__new__(cls)
        member._value_ = value
        member._closed_form = closed_form
        return member

    def coefficients(self, param: float | np.ndarray) -> np.ndarray:
        """Coefficient vector of this family at parameter value (radians).

        An array of n parameters gives the (n, d) stack of vectors, each row
        bit for bit the vector of its parameter alone.
        """
        return self._closed_form(param)


# Known phase vectors with flat-modulus synthesis, one row per (d, variant).
_PRESET_ANGLES: dict[tuple[int, int], tuple[float, ...]] = {
    (2, 0): (0.0, math.pi / 2.0),
    (3, 0): (0.0, 0.0, 2.0 * math.pi / 3.0),
    (4, 0): (0.0, 0.0, 0.0, math.pi),
    (4, 1): (0.0, math.pi, math.pi, math.pi),
    (5, 0): (0.0, 2.0 * math.pi / 5.0, 0.0, 4.0 * math.pi / 5.0, 4.0 * math.pi / 5.0),
}


def available_presets() -> tuple[tuple[int, int], ...]:
    """All (d, variant) keys of the preset catalog, sorted."""
    return tuple(sorted(_PRESET_ANGLES))


def preset_phases(d: int, variant: int = 0) -> PhaseVector:
    """The phases of a cataloged flat-phase endpoint, by dimension and variant.

    Synthesizing them gives a maximally entangled seed state.  The
    synthesized moduli are re-verified to be flat on every call, by the
    certificate's rule (pass only when the deviation is below
    ``FLATNESS_TOL``, never on NaN); a failure means the catalog itself is
    corrupt and raises ``RuntimeError``.  An unknown key raises
    ``ValueError``.
    """
    key = (d, variant)
    if key not in _PRESET_ANGLES:
        raise ValueError(
            f"no preset for d={d}, variant={variant}; available: {available_presets()}"
        )
    theta0 = PhaseVector(np.array(_PRESET_ANGLES[key]))
    deviation = flatness(synthesize_coefficients(theta0))
    if not deviation < FLATNESS_TOL:
        raise RuntimeError(f"preset phases are not flat: deviation {deviation!r}")
    return theta0


def interpolate(theta0: PhaseVector, t: float | np.ndarray) -> PhaseVector:
    """Scale every phase by t in [0, 1].

    t = 0 gives the all-zero phases (product basis, entanglement 0); t = 1
    returns theta0 itself.  An array of n values of t gives the n scaled
    phase vectors as one stacked PhaseVector of shape (n, d).

    Scaling acts on the stored representatives in [0, 2*pi), before any
    gauge reduction, and this is intended: the path is defined by the phases
    as given.  Two gauge-equivalent endpoints (phases differing by a
    constant, e.g. theta0 and theta0.canonical()) share both ends, the
    product basis at t = 0 and the same entanglement at t = 1, but where
    the constant shift wraps some phase past 2*pi they trace different
    curves in between.  Fix the gauge first to get one path per endpoint.

    This docstring owns the paper's claim (iii): the bases move continuously
    from the product basis to the endpoint's.  The coefficients are
    a(t) = F c(t), with c(t) = exp(i*t*theta0)/sqrt(d) and F the unitary
    Fourier matrix, so for t, s in [0, 1]

        ||a(t) - a(s)||_2 = ||c(t) - c(s)||_2 <= L * |t - s|,
        L = ||theta0||_2 / sqrt(d) < 2*pi,

    with theta0 taken as stored, in [0, 2*pi).  Every basis state puts a(t)
    on the same cells at every t (:func:`equibasis.basis.gram_check`), so
    all d^2 states move by exactly ||a(t) - a(s)||_2 at once.  Their reduced
    states are diagonal, holding the |a_i|^2 in one fixed order, so their
    trace distance T is at most ||a(t) - a(s)||_2, and Fannes-Audenaert
    (Fannes 1973; Audenaert, J. Phys. A 2007) bounds the step in the base-d
    entanglement:

        |E(t) - E(s)| <= [T ln(d - 1) + h2(T)] / ln d,

    h2 the binary entropy in nats.  The right side grows with T up to
    T = 1 - 1/d, where it reaches 1, so ||a(t) - a(s)||_2 may stand in for T.
    """
    t = np.asarray(t, dtype=float)
    if not np.all((0.0 <= t) & (t <= 1.0)):
        raise ValueError(f"interpolation parameter must be in [0, 1], got {t}")
    return PhaseVector(np.multiply.outer(t, theta0.theta))


def quadratic_phases(d: int) -> PhaseVector:
    """Quadratic-phase candidate endpoint for arbitrary d.

    theta_alpha = pi*alpha^2/d for even d and pi*alpha*(alpha+1)/d for odd
    d: the Frank-Zadoff-Chu sequence, whose transform has constant modulus
    for every d (D. C. Chu, IEEE Trans. Inf. Theory 18, 1972), so the
    synthesized coefficients are flat; their measured flatness residual
    is stated at ``core.FLATNESS_TOL``.  theta_0 = 0, so the vector is
    already gauge-fixed.
    """
    if d < 2:
        raise ValueError(f"dimension must be >= 2, got {d}")
    alpha = np.arange(d, dtype=float)
    if d % 2 == 0:
        theta = math.pi * alpha**2 / d
    else:
        theta = math.pi * alpha * (alpha + 1.0) / d
    return PhaseVector(theta)
