"""Alternating-projection search: residuals, convergence, determinism, certificates."""

import math

import numpy as np
import pytest

from equibasis import (
    PhaseVector,
    SearchConfig,
    alternating_projection_search,
    iterate_projections,
    preset_phases,
    quadratic_phases,
    synthesize_coefficients,
    verify_solution,
)
from equibasis.core import flatness
from equibasis.search import _restart_phases


class TestFlatnessResidual:
    def test_flat_preset_is_zero(self):
        assert flatness(synthesize_coefficients(preset_phases(4, 0).theta0)) < 1e-15

    @pytest.mark.parametrize("d", [2, 3, 7, 12])
    def test_zero_phases_score_the_maximum(self, d):
        # delta coefficients deviate by 1 - 1/sqrt(d) at k=0 and by 1/sqrt(d)
        # everywhere else; the latter dominates for d < 4
        got = flatness(synthesize_coefficients(PhaseVector(np.zeros(d))))
        expected = max(1 - 1 / math.sqrt(d), 1 / math.sqrt(d))
        assert abs(got - expected) < 1e-12

    def test_quadratic_phases_d7(self):
        assert flatness(synthesize_coefficients(quadratic_phases(7))) < 1e-10


class TestIterateProjections:
    def test_flat_start_is_a_fixed_point(self):
        theta0 = preset_phases(4, 0).theta0
        theta, residual, iterations = iterate_projections(theta0, 10_000, 1e-10)
        assert iterations == 0
        assert residual < 1e-12
        assert np.allclose(theta.theta, theta0.theta, atol=1e-15)

    def test_returns_canonical_gauge(self):
        start = PhaseVector([0.0, 1.0, 2.0, 3.0, 4.0])
        theta, _, _ = iterate_projections(start, 50, 1e-10)
        assert theta.theta[0] == 0.0


class TestSearchConfig:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            SearchConfig(d=1)
        with pytest.raises(ValueError):
            SearchConfig(d=3, max_iters=0)
        with pytest.raises(ValueError):
            SearchConfig(d=3, restarts=0)
        with pytest.raises(ValueError):
            SearchConfig(d=3, residual_tol=0.0)


class TestSearch:
    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_d2_converges_to_known_solution(self, seed):
        result = alternating_projection_search(SearchConfig(d=2, rng_seed=seed))
        assert result.converged
        assert result.residual < 1e-10
        # all flat d=2 solutions are gauge-equivalent to (0, +/- pi/2)
        assert abs(math.sin(result.theta.theta[1])) == pytest.approx(1.0, abs=1e-9)

    def test_d5_seed1_converges_off_catalog(self):
        result = alternating_projection_search(SearchConfig(d=5, rng_seed=1))
        assert result.converged
        catalog = preset_phases(5, 0).theta0.theta
        assert not np.allclose(result.theta.theta, catalog, atol=1e-6)

    def test_deterministic(self):
        a = alternating_projection_search(SearchConfig(d=6, rng_seed=99))
        b = alternating_projection_search(SearchConfig(d=6, rng_seed=99))
        assert np.array_equal(a.theta.theta, b.theta.theta)
        assert a.residual == b.residual
        assert a.iterations == b.iterations
        assert a.restart_index == b.restart_index
        assert a.converged == b.converged

    def test_iteration_starvation_reports_nonconvergence(self):
        result = alternating_projection_search(SearchConfig(d=7, max_iters=1))
        assert not result.converged
        assert result.residual >= 1e-10

    def test_converged_flag_tracks_tolerance(self):
        result = alternating_projection_search(SearchConfig(d=4))
        assert result.converged == (result.residual < 1e-10)

    def test_result_gauge_canonical(self):
        result = alternating_projection_search(SearchConfig(d=5, rng_seed=3))
        assert result.theta.theta[0] == 0.0

    def test_best_result_is_minimum_over_restarts(self):
        cfg = SearchConfig(d=7, max_iters=3, restarts=5, rng_seed=13)
        merged = alternating_projection_search(cfg)
        individual = []
        for restart in range(cfg.restarts):
            start = _restart_phases(cfg.d, cfg.rng_seed, restart)
            _, residual, _ = iterate_projections(start, cfg.max_iters, cfg.residual_tol)
            individual.append(residual)
        if not merged.converged:
            assert merged.residual == min(individual)
            assert merged.restart_index == individual.index(min(individual))

    @pytest.mark.parametrize("d", list(range(2, 13)))
    def test_default_config_converges(self, d):
        result = alternating_projection_search(SearchConfig(d=d))
        assert result.converged

    def test_soundness_certificate(self):
        for d in (3, 5, 8):
            cfg = SearchConfig(d=d)
            result = alternating_projection_search(cfg)
            assert result.converged
            cert = verify_solution(result.theta)
            assert cert.residual < 10 * cfg.residual_tol
            assert cert.gram_pass
            assert cert.maximal


class TestVerifySolution:
    def test_catalog_row_passes(self):
        cert = verify_solution(preset_phases(3, 0).theta0)
        assert cert.maximal
        assert cert.gram_pass
        assert cert.residual < 1e-9
        assert abs(cert.entanglement - 1.0) < 1e-9

    def test_zero_phases_orthonormal_but_not_entangled(self):
        cert = verify_solution(PhaseVector(np.zeros(4)))
        assert cert.gram_pass
        assert cert.residual > 0.1
        assert cert.entanglement < 1e-12
        assert not cert.maximal

    def test_generic_phases_give_intermediate_entanglement(self):
        cert = verify_solution(PhaseVector([0.0, math.pi / 7, 1.0, 2.0]))
        assert cert.gram_pass
        assert 0.0 < cert.entanglement < 1.0
        assert not cert.maximal
