"""The 14 searches that the benchmark's ``emit`` workload runs for seed 1
keep their sweep counts.

Each (d, seed, sweeps) triple is copied from ``bench/search_pool.json``, the
entry that seed 1 draws for that d; the test does not read ``bench/``.  Each
search converges at restart 0 after exactly that many sweeps, 6491 in all,
which is the traced ``search.sweeps`` of an emit pass, so a drift that would
change emit's cost without failing a correctness check shows here.

The counts alone do not pin the bits: summing the transform back in reverse
order, or reducing the phases twice, moves the returned phases of all 14
searches and none of their counts.  So each search's phases are also
compared, bit for bit, with the reference loop of ``test_fast_paths`` run
over the same sweeps.
"""

import pytest
from test_fast_paths import reference_iterate_projections

from equibasis.search import (
    SearchConfig,
    _restart_phases,
    alternating_projection_search,
    iterate_projections,
)

EMIT_SEARCHES = [
    (6, 57, 102),
    (8, 40, 506),
    (10, 13, 360),
    (12, 1, 300),
    (14, 95, 303),
    (16, 60, 299),
    (18, 79, 433),
    (20, 19, 361),
    (22, 94, 546),
    (24, 26, 395),
    (26, 48, 606),
    (28, 39, 579),
    (30, 20, 674),
    (32, 61, 1027),
]


@pytest.mark.parametrize("d, seed, sweeps", EMIT_SEARCHES)
def test_emit_search_keeps_its_sweeps(d, seed, sweeps):
    result = alternating_projection_search(SearchConfig(d=d, rng_seed=seed))
    assert result.converged
    assert result.restart_index == 0
    assert result.iterations == sweeps


@pytest.mark.parametrize("d, seed", [(d, seed) for d, seed, _ in EMIT_SEARCHES])
def test_emit_search_sweeps_match_reference(d, seed):
    cfg = SearchConfig(d=d, rng_seed=seed)
    start = _restart_phases(d, seed, 0)
    theta, residual, iterations = iterate_projections(start, cfg.max_iters, cfg.residual_tol)
    want_theta, want_residual, want_iterations = reference_iterate_projections(
        start, cfg.max_iters, cfg.residual_tol
    )
    assert theta.theta.tobytes() == want_theta.theta.tobytes()
    assert (residual, iterations) == (want_residual, want_iterations)
