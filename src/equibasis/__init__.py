"""equibasis: equi-entangled orthonormal bases for pairs of qudits.

Construct d^2 orthonormal basis states of two d-level systems that all
share one entanglement value, tunable from a product basis to a maximally
entangled basis.  Includes closed-form low-dimensional families, brute
force orthonormality and entropy oracles, and a numerical search for
maximally entangled endpoints in arbitrary dimension.
"""

from types import ModuleType as _ModuleType

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
    entanglement,
    root_of_unity,
    synthesize_coefficients,
)
from .families import (
    Family,
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
    SearchConfig,
    SearchResult,
    SolutionCertificate,
    alternating_projection_search,
    iterate_projections,
    verify_solution,
)

__version__ = "0.1.0"

# The public API is every name imported above, each written once where it is
# imported, plus the version; the submodules that those imports bind are not.
__all__ = [name for name, value in globals().items()
           if not (name.startswith("_") or isinstance(value, _ModuleType))] + ["__version__"]
