"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import json
import math
import time

import numpy as np
import pytest

from equibasis import (
    PhaseVector,
    SearchConfig,
    alternating_projection_search,
    available_presets,
    build_state,
    entanglement,
    family_d3_complex,
    family_d3_real,
    family_d4_complex,
    family_d4_complex_entropy,
    family_d4_real,
    gram_check,
    interpolate,
    preset_phases,
    root_of_unity,
    state_entanglement,
    synthesize_coefficients,
    verify_solution,
)
from equibasis.cli import main as cli_main


def report(criterion: int, passed: bool, description: str) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"[acceptance] criterion {criterion:2d} {status}: {description}")
    assert passed, f"criterion {criterion} failed: {description}"


@pytest.fixture(scope="module")
def random_sample():
    """200 random phase vectors spread over d = 2..8, fixed seed."""
    rng = np.random.default_rng(20260809)
    sample = []
    for i in range(200):
        d = 2 + (i % 7)
        theta = np.concatenate([[0.0], rng.uniform(0, 2 * np.pi, d - 1)])
        sample.append(PhaseVector(theta))
    return sample


def test_criterion_1_orthonormality(random_sample):
    start = time.perf_counter()
    worst = 0.0
    for theta in random_sample:
        rep = gram_check(synthesize_coefficients(theta))
        worst = max(worst, rep.max_offdiag, rep.max_diag_dev)
    elapsed = time.perf_counter() - start
    report(
        1,
        worst < 1e-12 and elapsed < 10.0,
        f"brute-force Gram identity over 200 samples, worst deviation "
        f"{worst:.2e}, {elapsed:.2f}s",
    )


def test_criterion_2_equi_entanglement(random_sample):
    worst = 0.0
    for theta in random_sample:
        a = synthesize_coefficients(theta)
        reference = entanglement(a)
        for m in range(theta.d):
            for n in range(theta.d):
                got = state_entanglement(build_state(a, m, n))
                worst = max(worst, abs(got - reference))
    report(
        2,
        worst < 1e-10,
        f"reduced-state entropy equals coefficient entropy on every (m,n) "
        f"state, worst gap {worst:.2e}",
    )


def test_criterion_3_real_qutrit_maximum():
    values = [
        entanglement(family_d3_real(math.radians(0.25 * i))) for i in range(720)
    ]
    peak = max(values)
    argmax = 0.25 * int(np.argmax(values))
    report(
        3,
        0.86 <= peak <= 0.88 and peak < 1.0,
        f"real d=3 grid maximum {peak:.6f} at {argmax} deg (0.87 +/- 0.01, < 1)",
    )


def test_criterion_4_complex_qutrit_endpoints():
    e_max = entanglement(family_d3_complex(math.pi / 3))
    e_min = entanglement(family_d3_complex(math.pi / 2))
    report(
        4,
        abs(e_max - 1.0) < 1e-12 and e_min < 1e-12,
        f"complex d=3 endpoints E(pi/3)={e_max!r}, E(pi/2)={e_min:.2e}",
    )


def test_criterion_5_real_d4_endpoints():
    e_max = entanglement(family_d4_real(0.0))
    e_min = entanglement(family_d4_real(math.pi / 2))
    report(
        5,
        abs(e_max - 1.0) < 1e-12 and e_min < 1e-12,
        f"real d=4 endpoints E(0)={e_max!r}, E(pi/2)={e_min:.2e}",
    )


def test_criterion_6_closed_form_entropy():
    worst = 0.0
    for i in range(361):
        theta = math.radians(0.5 * i)
        direct = entanglement(family_d4_complex(theta))
        closed = family_d4_complex_entropy(theta)
        worst = max(worst, abs(direct - closed))
    report(
        6,
        worst < 1e-12,
        f"complex d=4 entropy vs two-level closed form on 0.5 deg grid, "
        f"worst gap {worst:.2e}",
    )


def test_criterion_7_preset_certificates():
    outcomes = []
    for d, variant in available_presets():
        cert = verify_solution(preset_phases(d, variant))
        outcomes.append(
            cert.residual < 1e-9
            and cert.gram.passed
            and abs(cert.entanglement - 1.0) < 1e-9
        )
    report(
        7,
        len(outcomes) == 5 and all(outcomes),
        "all five cataloged phase rows pass the maximal-entanglement "
        "certificate (moduli checked, not phases)",
    )


def test_criterion_8_vandermonde_uniqueness():
    worst = 0.0
    for d in range(2, 17):
        matrix = np.array(
            [[root_of_unity(d, m * alpha) for alpha in range(d)] for m in range(d)]
        )
        rhs = matrix @ np.full(d, 1.0 / d)
        expected = np.zeros(d, dtype=complex)
        expected[0] = 1.0
        worst = max(worst, float(np.max(np.abs(rhs - expected))))
    report(
        8,
        worst < 1e-12,
        f"flat |c|^2=1/d reproduces (1,0,...,0) for d=2..16, worst {worst:.2e}",
    )


def test_criterion_9_search_capability():
    start = time.perf_counter()
    all_ok = True
    details = []
    for d in range(2, 13):
        result = alternating_projection_search(SearchConfig(d=d))
        cert = verify_solution(result.theta)
        ok = result.converged and result.residual < 1e-10 and cert.maximal
        all_ok = all_ok and ok
        details.append(f"d={d}:{'ok' if ok else 'FAIL'}")
    elapsed = time.perf_counter() - start
    report(
        9,
        all_ok and elapsed < 5.0,
        f"default search converges and certifies for d=2..12 in {elapsed:.2f}s "
        f"({', '.join(details)})",
    )


def test_criterion_10_interpolation_continuity():
    all_ok = True
    worst_jump = 0.0
    for d, variant in available_presets():
        theta0 = preset_phases(d, variant)
        values = np.array(
            [
                entanglement(synthesize_coefficients(interpolate(theta0, i / 1000)))
                for i in range(1001)
            ]
        )
        jump = float(np.abs(np.diff(values)).max())
        worst_jump = max(worst_jump, jump)
        ok = values[0] < 1e-12 and abs(values[-1] - 1.0) < 1e-9 and jump <= 0.01
        all_ok = all_ok and ok
    report(
        10,
        all_ok,
        f"interpolation curves run E(0)=0 to E(1)=1 with max step jump "
        f"{worst_jump:.4f} at 1e-3 resolution",
    )


def test_criterion_11_cli_reproducibility(tmp_path, capsys):
    commands = [
        ["construct", "--d", "4", "--theta", "0,0,0,pi"],
        ["construct", "--d", "3", "--family", "d3-complex", "--param-deg", "60",
         "--format", "csv"],
        ["curve", "--family", "d3-real", "--from", "0", "--to", "180", "--step", "0.25"],
        ["curve", "--preset", "d=5,v=0", "--interpolate", "--from", "0", "--to", "1",
         "--step", "0.01"],
        ["search", "--d", "9", "--seed", "4"],
    ]
    identical = True
    for index, argv in enumerate(commands):
        first = tmp_path / f"first_{index}"
        second = tmp_path / f"second_{index}"
        assert cli_main(argv + ["--output", str(first), "--quiet"]) == 0
        assert cli_main(argv + ["--output", str(second), "--quiet"]) == 0
        identical = identical and first.read_bytes() == second.read_bytes()
    capsys.readouterr()
    report(
        11,
        identical,
        "repeated CLI invocations write byte-identical data files "
        "(construct json/csv, curve, interpolation, search)",
    )


def test_criterion_7_note_table_phases_modulus_only():
    # documented convention: catalog coefficients are certified by modulus;
    # the d=2 row synthesizes to ((1+i)/2,(1-i)/2), equal in modulus to the
    # printed (1/sqrt(2), i/sqrt(2)) but not in phase
    a = synthesize_coefficients(preset_phases(2))
    printed = np.array([1 / math.sqrt(2), 1j / math.sqrt(2)])
    assert np.allclose(np.abs(a), np.abs(printed), atol=1e-12)
    assert not np.allclose(a, printed, atol=1e-6)
