"""SearchConfig field checks, the `search` flag defaults and the one flatness bound."""

import math

import numpy as np
import pytest

from equibasis import core, families, search
from equibasis.cli import build_parser
from equibasis.search import SearchConfig, alternating_projection_search


@pytest.mark.parametrize(
    "fields",
    [
        {"d": 4.0},
        {"d": 4, "max_iters": 5.5},
        {"d": 4, "restarts": 2.0},
        {"d": 4, "rng_seed": 1.5},
        {"d": 4, "rng_seed": 1.0},
    ],
)
def test_non_integral_counts_are_rejected(fields):
    name = next(k for k, v in fields.items() if not isinstance(v, int))
    with pytest.raises(ValueError, match=f"^{name} must be an integer"):
        SearchConfig(**fields)


@pytest.mark.parametrize("tol", [math.inf, math.nan])
def test_non_finite_tolerance_is_rejected(tol):
    with pytest.raises(ValueError, match="residual tolerance must be finite"):
        SearchConfig(d=4, residual_tol=tol)


def test_negative_infinite_tolerance_keeps_the_positive_message():
    with pytest.raises(ValueError, match="^residual tolerance must be positive$"):
        SearchConfig(d=4, residual_tol=-math.inf)


def test_numpy_integers_are_accepted():
    plain = SearchConfig(d=5, max_iters=40, restarts=2, rng_seed=3)
    numpy = SearchConfig(
        d=np.int64(5), max_iters=np.int32(40), restarts=np.uint8(2), rng_seed=np.uint64(3)
    )
    a = alternating_projection_search(plain)
    b = alternating_projection_search(numpy)
    assert np.array_equal(a.theta.theta, b.theta.theta)
    assert (a.residual, a.iterations, a.restart_index) == (b.residual, b.iterations, b.restart_index)


def test_bare_search_parses_to_the_config_defaults():
    args = build_parser().parse_args(["search", "--d", "4"])
    cfg = SearchConfig(
        d=args.d,
        max_iters=args.max_iters,
        residual_tol=args.tol,
        restarts=args.restarts,
        rng_seed=args.seed,
    )
    assert cfg == SearchConfig(d=4)


def test_one_flatness_bound():
    assert families.FLATNESS_TOL is core.FLATNESS_TOL
    cert = search.verify_solution(families.quadratic_phases(4))
    (tolerance,) = (check.tolerance for check in cert.checks if check.name == "residual")
    assert tolerance is core.FLATNESS_TOL
