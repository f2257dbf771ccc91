"""equibasis: equi-entangled orthonormal bases for pairs of qudits.

Construct d^2 orthonormal basis states of two d-level systems that all
share one entanglement value, tunable from a product basis to a maximally
entangled basis.  Includes closed-form low-dimensional families, brute
force orthonormality and entropy oracles, and a numerical search for
maximally entangled endpoints in arbitrary dimension.
"""

from .basis import (
    GramReport,
    build_state,
    gram_check,
    inner_product,
    shift_state,
    state_entanglement,
)
from .core import (
    FLATNESS_TOL,
    NORM_TOL,
    ORTHO_TOL,
    PhaseVector,
    autocorrelation,
    dft,
    entanglement,
    idft,
    root_of_unity,
    synthesize_coefficients,
)
from .families import (
    Family,
    PresetEntry,
    available_presets,
    family_d3_complex,
    family_d3_real,
    family_d4_complex,
    family_d4_complex_entropy,
    family_d4_real,
    interpolate,
    preset_phases,
    quadratic_phases,
)
from .search import (
    CERT_ENTROPY_TOL,
    CERT_RESIDUAL_TOL,
    SearchConfig,
    SearchResult,
    SolutionCertificate,
    alternating_projection_search,
    flatness_residual,
    iterate_projections,
    verify_solution,
)

__version__ = "0.1.0"

__all__ = [
    "PhaseVector",
    "root_of_unity",
    "synthesize_coefficients",
    "autocorrelation",
    "entanglement",
    "dft",
    "idft",
    "ORTHO_TOL",
    "NORM_TOL",
    "Family",
    "family_d3_real",
    "family_d3_complex",
    "family_d4_real",
    "family_d4_complex",
    "family_d4_complex_entropy",
    "PresetEntry",
    "preset_phases",
    "available_presets",
    "interpolate",
    "quadratic_phases",
    "FLATNESS_TOL",
    "GramReport",
    "build_state",
    "inner_product",
    "gram_check",
    "state_entanglement",
    "shift_state",
    "SearchConfig",
    "SearchResult",
    "SolutionCertificate",
    "alternating_projection_search",
    "iterate_projections",
    "flatness_residual",
    "verify_solution",
    "CERT_RESIDUAL_TOL",
    "CERT_ENTROPY_TOL",
    "__version__",
]
