"""One certificate rule and one flatness residual behind `verify` and `verify_solution`.

`reference_certificate` keeps the formula `verify` used while it carried its
own copy of the rule; the command must print exactly that JSON for every
kind of source.  The search's extremes form of the residual is tied to
`core.flatness`, and the search seed is checked at the boundary.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equibasis import (
    CERT_ENTROPY_TOL,
    FLATNESS_TOL,
    Family,
    PhaseVector,
    SearchConfig,
    SolutionCertificate,
    available_presets,
    entanglement,
    gram_check,
    iterate_projections,
    quadratic_phases,
    synthesize_coefficients,
    verify_solution,
)
from equibasis import search
from equibasis.cli import build_parser, main, resolve_source
from equibasis.core import flatness


def reference_certificate(a):
    """The certificate dict as `verify` built it before it read SolutionCertificate."""
    d = a.size
    report = gram_check(a)
    e_value = entanglement(a)
    residual = float(np.max(np.abs(np.abs(a) - 1.0 / math.sqrt(d))))
    maximal = (
        residual < FLATNESS_TOL
        and report.passed
        and abs(e_value - 1.0) < CERT_ENTROPY_TOL
    )
    return {
        "residual": residual,
        "gram_max_offdiag": report.max_offdiag,
        "gram_max_diag_dev": report.max_diag_dev,
        "entanglement": e_value,
        "maximal": maximal,
    }


def phase_text(theta):
    return ",".join(repr(float(t)) for t in theta)


def tilted_pair(deviation):
    """d = 2 coefficients (x, i y), unit norm and orthogonal for any angle,
    with |x| - 1/sqrt(2) about ``deviation``."""
    angle = math.pi / 4 - math.sqrt(2.0) * deviation
    return f"{math.cos(angle)!r},0;0,{math.sin(angle)!r}"


FLAT_PAIR = f"{math.sqrt(0.5)!r},0;0,{math.sqrt(0.5)!r}"
RNG = np.random.default_rng(20260)
THETA_SOURCES = (
    [["--theta", phase_text(RNG.uniform(0.0, 2.0 * math.pi, d))] for d in (2, 3, 5, 8, 13)]
    + [["--theta", phase_text(quadratic_phases(d).theta)] for d in (2, 4, 7, 16, 31)]
)
SOURCES = (
    THETA_SOURCES
    + [["--preset", f"d={d},v={v}"] for d, v in available_presets()]
    + [
        ["--family", family.value, "--param-deg", repr(p)]
        for family in Family
        for p in (0.0, 30.0, 60.0, 90.0, 137.5)
    ]
    + [
        [f"--coeffs={FLAT_PAIR}"],  # flat and orthogonal
        ["--coeffs=0.6,0;0,0.8"],  # orthogonal, not flat
        ["--coeffs=0.6,0;0,0.8;0,0"],  # not orthogonal
        ["--coeffs=1,0;1,0"],  # flat, not orthogonal
        [f"--coeffs={tilted_pair(5e-10)}"],  # residual just inside FLATNESS_TOL
        [f"--coeffs={tilted_pair(2e-9)}"],  # and just outside
        ["--family", "d4-real", "--param-deg", repr(math.degrees(1e-9))],  # residual 5e-10
        ["--family", "d4-real", "--param-deg", repr(math.degrees(4e-9))],  # residual 2e-9
    ]
)


def source_id(value):
    if not isinstance(value, list):
        return None
    if value[0] == "--theta":
        return f"--theta d={value[1].count(',') + 1}"
    return " ".join(value)[:40]


@pytest.mark.parametrize("source", SOURCES, ids=source_id)
def test_verify_prints_the_reference_certificate(capsys, source):
    argv = ["verify", *source]
    a, _ = resolve_source(build_parser().parse_args(argv))
    expected = reference_certificate(a)
    code = main(argv)
    out, err = capsys.readouterr()
    assert out == json.dumps(expected, indent=2) + "\n"
    assert err == ""
    assert code == (0 if gram_check(a).passed else 1)


@pytest.mark.parametrize(
    "source, maximal",
    [
        ([f"--coeffs={FLAT_PAIR}"], True),
        ([f"--coeffs={tilted_pair(5e-10)}"], True),
        ([f"--coeffs={tilted_pair(2e-9)}"], False),
        (["--family", "d4-real", "--param-deg", repr(math.degrees(1e-9))], True),
        (["--family", "d4-real", "--param-deg", repr(math.degrees(4e-9))], False),
    ],
    ids=source_id,
)
def test_residual_tolerance_decides_maximal(capsys, source, maximal):
    assert main(["verify", *source]) == 0
    got = json.loads(capsys.readouterr().out)
    assert got["maximal"] is maximal
    assert (got["residual"] < FLATNESS_TOL) is maximal
    assert got["gram_max_offdiag"] < 1e-12 and abs(got["entanglement"] - 1.0) < CERT_ENTROPY_TOL


@pytest.mark.parametrize("source", THETA_SOURCES, ids=source_id)
def test_theta_certificate_matches_verify_solution(capsys, source):
    main(["verify", *source])
    got = json.loads(capsys.readouterr().out)
    a, _ = resolve_source(build_parser().parse_args(["verify", *source]))
    cert = verify_solution(PhaseVector(np.array([float(t) for t in source[1].split(",")])))
    assert got["maximal"] is cert.maximal
    assert got["residual"] == cert.residual == flatness(a)
    assert got["entanglement"] == cert.entanglement
    assert (got["gram_max_offdiag"], got["gram_max_diag_dev"]) == (
        cert.gram.max_offdiag,
        cert.gram.max_diag_dev,
    )


def test_verify_output_file_holds_the_printed_report(tmp_path, capsys):
    out = tmp_path / "cert.json"
    assert main(["verify", "--preset", "d=4,v=1", "--output", str(out)]) == 0
    assert out.read_text(encoding="utf-8") == capsys.readouterr().out
    manifest = json.loads(out.with_suffix(".manifest.json").read_text())
    assert manifest["config"] == {"source": {"preset": {"d": 4, "variant": 1}}, "d": 4}


def test_maximal_is_strict_at_each_tolerance():
    a = synthesize_coefficients(quadratic_phases(4))
    report = gram_check(a)
    assert report.passed

    def maximal(residual, e_value):
        return SolutionCertificate(residual=residual, gram=report, entanglement=e_value).maximal

    assert maximal(0.0, 1.0)
    assert maximal(math.nextafter(FLATNESS_TOL, 0.0), 1.0)
    assert not maximal(FLATNESS_TOL, 1.0)
    assert maximal(0.0, 1.0 - 0.5 * CERT_ENTROPY_TOL)
    assert not maximal(0.0, 1.0 - 2.0 * CERT_ENTROPY_TOL)
    assert not maximal(0.0, 1.0 + 2.0 * CERT_ENTROPY_TOL)
    failing = gram_check(np.array([1.0, 1.0]) / math.sqrt(2.0))
    assert not failing.passed
    assert not SolutionCertificate(residual=0.0, gram=failing, entanglement=1.0).maximal


def test_verify_solution_synthesizes_once(monkeypatch):
    calls = []

    def counting(theta):
        calls.append(theta)
        return synthesize_coefficients(theta)

    monkeypatch.setattr(search, "synthesize_coefficients", counting)
    verify_solution(quadratic_phases(6))
    assert len(calls) == 1


# --- the sweep's residual is core.flatness -----------------------------------

finite = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)


def extremes_form(a):
    """The residual as the projection sweep takes it, from the moduli's extremes."""
    target = 1.0 / math.sqrt(a.size)
    mod = np.abs(a)
    hi, lo = mod.max(), mod.min()
    return float(max(hi - target, target - lo))


@given(st.lists(st.tuples(finite, finite), min_size=1, max_size=40))
@settings(max_examples=200, deadline=None)
def test_flatness_equals_the_extremes_form(parts):
    a = np.array([complex(re, im) for re, im in parts])
    assert flatness(a) == extremes_form(a)


@given(st.integers(2, 40), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_sweep_start_residual_is_flatness(d, seed):
    theta = PhaseVector(np.random.default_rng(seed).uniform(0.0, 2.0 * math.pi, d))
    _, residual, iterations = iterate_projections(theta, 0, 1e-300)
    assert iterations == 0
    assert residual == flatness(synthesize_coefficients(theta))


# --- the search seed ------------------------------------------------------------


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_seed_outside_the_philox_key_is_rejected(seed):
    with pytest.raises(ValueError, match="seed"):
        SearchConfig(d=4, rng_seed=seed)


@pytest.mark.parametrize("seed", ["-1", str(2**64)])
def test_cli_seed_outside_range_exits_2(tmp_path, capsys, seed):
    out = tmp_path / "found.json"
    assert main(["search", "--d", "4", "--seed", seed, "--output", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: seed must be in [0, 2**64), got {seed}\n"
    assert captured.out == "" and not out.exists()


def test_largest_seed_runs(capsys):
    assert main(["search", "--d", "4", "--seed", str(2**64 - 1)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["seed"] == 2**64 - 1 and payload["converged"] is True
