"""Closed-form families, preset endpoints, interpolation, quadratic phases."""

import math

import numpy as np
import pytest

from equibasis import (
    Family,
    PhaseVector,
    available_presets,
    entanglement,
    family_d3_complex,
    family_d3_real,
    family_d4_complex,
    family_d4_complex_entropy,
    family_d4_real,
    interpolate,
    preset_phases,
    quadratic_phases,
    synthesize_coefficients,
)
from equibasis.core import flatness

SYSTEM_TOL = 1e-12


def cyclic_lag(a, m):
    d = a.size
    return sum(a[i].conjugate() * a[(i + m) % d] for i in range(d))


def system_residual(a):
    """Worst violation of unit norm and the nonzero-lag orthogonality sums."""
    d = a.size
    residuals = [abs(cyclic_lag(a, 0) - 1.0)]
    residuals += [abs(cyclic_lag(a, m)) for m in range(1, d)]
    return max(residuals)


class TestD3Real:
    def test_endpoints_and_midpoint(self):
        assert np.allclose(family_d3_real(0.0), [1, 0, 0], atol=1e-15)
        assert np.allclose(family_d3_real(math.pi / 4), [2 / 3, 2 / 3, -1 / 3], atol=1e-15)
        assert np.allclose(family_d3_real(math.pi / 2), [0, 1, 0], atol=1e-15)

    def test_grid_maximum_near_087(self):
        values = [
            entanglement(family_d3_real(math.radians(0.25 * i))) for i in range(720)
        ]
        peak = max(values)
        assert 0.86 <= peak <= 0.88
        assert peak < 1.0

    def test_quadratic_system_sampled(self):
        rng = np.random.default_rng(31)
        for phi in rng.uniform(0, 2 * np.pi, 1000):
            assert system_residual(family_d3_real(phi)) < SYSTEM_TOL


class TestD3Complex:
    def test_maximally_entangled_point(self):
        a = family_d3_complex(math.pi / 3)
        s3 = 1 / math.sqrt(3)
        expected = np.array([s3, -np.exp(1j * math.pi / 3) * s3, s3])
        assert np.allclose(a, expected, atol=1e-15)
        assert abs(entanglement(a) - 1.0) < 1e-12

    def test_product_point(self):
        a = family_d3_complex(math.pi / 2)
        assert np.allclose(a, [0, -1j, 0], atol=1e-15)
        assert entanglement(a) < 1e-12

    def test_phi_zero(self):
        assert np.allclose(family_d3_complex(0.0), [2 / 3, -1 / 3, 2 / 3], atol=1e-15)

    def test_quadratic_system_sampled(self):
        rng = np.random.default_rng(32)
        for phi in rng.uniform(0, 2 * np.pi, 1000):
            assert system_residual(family_d3_complex(phi)) < SYSTEM_TOL


class TestD4Real:
    def test_endpoints_and_midpoint(self):
        a = family_d4_real(0.0)
        assert np.allclose(a, [0.5, 0.5, -0.5, 0.5], atol=1e-15)
        assert abs(entanglement(a) - 1.0) < 1e-12
        a = family_d4_real(math.pi / 2)
        assert np.allclose(a, [0, 1, 0, 0], atol=1e-15)
        assert entanglement(a) < 1e-12
        r3 = math.sqrt(3)
        assert np.allclose(
            family_d4_real(math.pi / 6), [r3 / 4, 3 / 4, -r3 / 4, 1 / 4], atol=1e-15
        )

    def test_quadratic_system_sampled(self):
        rng = np.random.default_rng(33)
        for theta in rng.uniform(0, 2 * np.pi, 1000):
            assert system_residual(family_d4_real(theta)) < SYSTEM_TOL


class TestD4Complex:
    def test_endpoints_and_midpoint(self):
        assert np.allclose(family_d4_complex(0.0), [1, 0, 0, 0], atol=1e-15)
        assert np.allclose(
            family_d4_complex(math.pi / 2), [0.5, 0.5j, 0.5, -0.5j], atol=1e-15
        )
        expected = np.array([(3 + 1j) / 4, (1 + 1j) / 4, (1 - 1j) / 4, -(1 + 1j) / 4])
        assert np.allclose(family_d4_complex(math.pi / 4), expected, atol=1e-15)

    def test_quadratic_system_sampled(self):
        rng = np.random.default_rng(34)
        for theta in rng.uniform(0, 2 * np.pi, 1000):
            assert system_residual(family_d4_complex(theta)) < SYSTEM_TOL

    def test_closed_form_entropy_matches_direct_on_grid(self):
        for i in range(361):
            theta = math.radians(0.5 * i)
            direct = entanglement(family_d4_complex(theta))
            closed = family_d4_complex_entropy(theta)
            assert abs(direct - closed) < 1e-12

    def test_schmidt_weights(self):
        theta = math.pi / 4
        a = family_d4_complex(theta)
        assert abs(abs(a[0]) ** 2 - (1 + 3 * math.cos(theta) ** 2) / 4) < 1e-15
        for k in (1, 2, 3):
            assert abs(abs(a[k]) ** 2 - math.sin(theta) ** 2 / 4) < 1e-15


class TestFamilyEnum:
    def test_dimensions(self):
        assert Family.D3_REAL.dimension == 3
        assert Family.D4_COMPLEX.dimension == 4

    def test_dispatch(self):
        assert np.allclose(
            Family("d3-real").coefficients(math.pi / 4), family_d3_real(math.pi / 4)
        )


class TestPresets:
    def test_catalog_keys(self):
        assert available_presets() == ((2, 0), (3, 0), (4, 0), (4, 1), (5, 0))

    def test_d4_v0_synthesizes_flat_row(self):
        entry = preset_phases(4, 0)
        assert np.allclose(entry.theta0.theta, [0, 0, 0, math.pi], atol=1e-15)
        a = synthesize_coefficients(entry.theta0)
        assert np.allclose(a, [0.5, 0.5j, 0.5, -0.5j], atol=1e-15)

    def test_d3_moduli_flat(self):
        a = synthesize_coefficients(preset_phases(3).theta0)
        assert np.allclose(np.abs(a), 1 / math.sqrt(3), atol=1e-9)

    def test_d5_moduli_flat(self):
        entry = preset_phases(5, 0)
        expected = [0, 2 * math.pi / 5, 0, 4 * math.pi / 5, 4 * math.pi / 5]
        assert np.allclose(entry.theta0.theta, expected, atol=1e-15)
        a = synthesize_coefficients(entry.theta0)
        assert np.allclose(np.abs(a), 1 / math.sqrt(5), atol=1e-9)

    @pytest.mark.parametrize("d,variant", [(2, 0), (3, 0), (4, 0), (4, 1), (5, 0)])
    def test_all_entries_flat(self, d, variant):
        entry = preset_phases(d, variant)
        assert flatness(synthesize_coefficients(entry.theta0)) < 1e-9

    def test_rejects_unknown(self):
        with pytest.raises(ValueError):
            preset_phases(6, 0)
        with pytest.raises(ValueError):
            preset_phases(4, 2)


class TestInterpolate:
    def test_t_zero_gives_product_basis(self):
        theta0 = preset_phases(5).theta0
        a = synthesize_coefficients(interpolate(theta0, 0.0))
        expected = np.zeros(5, dtype=complex)
        expected[0] = 1.0
        assert np.allclose(a, expected, atol=1e-15)

    def test_t_one_returns_seed(self):
        theta0 = preset_phases(4, 0).theta0
        assert np.allclose(interpolate(theta0, 1.0).theta, theta0.theta, atol=1e-15)
        a = synthesize_coefficients(interpolate(theta0, 1.0))
        assert abs(entanglement(a) - 1.0) < 1e-12

    def test_halfway_is_partially_entangled(self):
        theta0 = preset_phases(4, 0).theta0
        half = interpolate(theta0, 0.5)
        assert np.allclose(half.theta, [0, 0, 0, math.pi / 2], atol=1e-15)
        e = entanglement(synthesize_coefficients(half))
        assert 0.0 < e < 1.0

    def test_continuity_along_t(self):
        for d, variant in available_presets():
            theta0 = preset_phases(d, variant).theta0
            values = [
                entanglement(synthesize_coefficients(interpolate(theta0, t / 100)))
                for t in range(101)
            ]
            jumps = np.abs(np.diff(values))
            assert jumps.max() < 0.1

    def test_rejects_out_of_range(self):
        theta0 = preset_phases(2).theta0
        with pytest.raises(ValueError):
            interpolate(theta0, -0.1)
        with pytest.raises(ValueError):
            interpolate(theta0, 1.1)


class TestQuadraticPhases:
    def test_d2_matches_preset_row(self):
        assert np.allclose(
            quadratic_phases(2).theta, preset_phases(2).theta0.theta, atol=1e-15
        )

    def test_d3_reduces(self):
        assert np.allclose(quadratic_phases(3).theta, [0, 2 * math.pi / 3, 0], atol=1e-12)

    @pytest.mark.parametrize("d", list(range(2, 17)))
    def test_flat_for_all_probed_dimensions(self, d):
        theta = quadratic_phases(d)
        a = synthesize_coefficients(theta)
        assert np.max(np.abs(np.abs(a) - 1 / math.sqrt(d))) < 1e-9

    def test_gauge_canonical(self):
        for d in (2, 5, 6, 9):
            assert quadratic_phases(d).theta[0] == 0.0

    def test_rejects_small_dimension(self):
        with pytest.raises(ValueError):
            quadratic_phases(1)


class TestInterpolateGauge:
    """`interpolate` scales the stored [0, 2*pi) representatives, so two
    gauge-equivalent endpoints (phases differing by a constant) trace
    different curves between their common ends."""

    RAW = PhaseVector([1.5 * math.pi, 1.5 * math.pi, 1.5 * math.pi + 2.0 * math.pi / 3.0])

    def entropies(self, theta0, t):
        return entanglement(synthesize_coefficients(interpolate(theta0, t)))

    def test_equivalent_endpoints_share_the_ends_but_not_the_midpoint(self):
        raw, canonical = self.RAW, self.RAW.canonical()
        assert canonical.theta[0] == 0.0 and raw.theta[2] < raw.theta[0]  # one phase wrapped
        assert self.entropies(raw, 0.0) == self.entropies(canonical, 0.0)  # both all-zero phases
        assert self.entropies(raw, 0.0) == pytest.approx(0.0, abs=1e-12)
        assert self.entropies(raw, 1.0) == pytest.approx(self.entropies(canonical, 1.0), abs=1e-12)
        assert self.entropies(canonical, 1.0) == pytest.approx(1.0, abs=1e-12)  # the d=3 preset
        assert abs(self.entropies(raw, 0.5) - self.entropies(canonical, 0.5)) > 1e-3

    def test_curve_cli_follows_the_given_representatives(self, tmp_path):
        from equibasis.cli import main

        rows = {}
        for name, theta0 in (("raw", self.RAW), ("canonical", self.RAW.canonical())):
            out = tmp_path / f"{name}.csv"
            phases = ",".join(repr(float(t)) for t in theta0.theta)
            argv = ["curve", "--interpolate", "--theta0", phases, "--from", "0", "--to", "1",
                    "--step", "0.5", "--output", str(out), "--quiet"]
            assert main(argv) == 0
            rows[name] = [tuple(map(float, r.split(","))) for r in out.read_text().splitlines()[1:]]
        (r0, rh, r1), (c0, ch, c1) = rows["raw"], rows["canonical"]
        assert r0 == c0 and r0[1] == pytest.approx(0.0, abs=1e-12)
        assert r1[1] == pytest.approx(c1[1], abs=1e-12)
        assert abs(rh[1] - ch[1]) > 1e-3
