"""`SolutionCertificate.checks` and the `checks` block of `verify`'s manifest.

Each check names one certificate condition with its value and tolerance;
`maximal` is true exactly when every check passes.
"""

import json
import math

import numpy as np
import pytest

from equibasis import (
    CERT_ENTROPY_TOL,
    CERT_RESIDUAL_TOL,
    ORTHO_TOL,
    SolutionCertificate,
    entanglement,
    gram_check,
)
from equibasis.cli import build_parser, main, resolve_source
from equibasis.core import flatness
from test_certificate import SOURCES, source_id

NAMES = ("gram_max_offdiag", "gram_max_diag_dev", "residual", "entanglement_deviation")


def certificate(a):
    return SolutionCertificate(
        gram=gram_check(a), entanglement=entanglement(a), residual=flatness(a)
    )


def verify_manifest(tmp_path, source):
    out = tmp_path / "cert.json"
    code = main(["verify", *source, "--output", str(out), "--quiet"])
    return code, out, json.loads(out.with_suffix(".manifest.json").read_text())


def passed(manifest):
    return {check["name"]: check["passed"] for check in manifest["checks"]}


@pytest.mark.parametrize("source", SOURCES, ids=source_id)
def test_maximal_is_every_check_passing(source):
    a, _ = resolve_source(build_parser().parse_args(["verify", *source]))
    cert = certificate(a)
    assert tuple(check.name for check in cert.checks) == NAMES
    assert all(check.passed for check in cert.checks) is cert.maximal
    values = {check.name: (check.value, check.tolerance) for check in cert.checks}
    assert values == {
        "gram_max_offdiag": (cert.gram.max_offdiag, ORTHO_TOL),
        "gram_max_diag_dev": (cert.gram.max_diag_dev, ORTHO_TOL),
        "residual": (cert.residual, CERT_RESIDUAL_TOL),
        "entanglement_deviation": (abs(cert.entanglement - 1.0), CERT_ENTROPY_TOL),
    }


@pytest.mark.parametrize("source", [["--preset", "d=4,v=1"], ["--preset", "d=5"]])
def test_flat_input_passes_every_check(tmp_path, source):
    code, out, manifest = verify_manifest(tmp_path, source)
    assert code == 0
    assert list(manifest) == ["command", "config", "checks", "versions", "timestamp"]
    assert passed(manifest) == dict.fromkeys(NAMES, True)
    assert json.loads(out.read_text())["maximal"] is True


def test_manifest_block_matches_the_certificate(tmp_path):
    source = ["--coeffs=0.6,0;0,0.8;0,0"]
    _, _, manifest = verify_manifest(tmp_path, source)
    a, _ = resolve_source(build_parser().parse_args(["verify", *source]))
    assert manifest["checks"] == [check._asdict() for check in certificate(a).checks]


def test_non_orthogonal_coeffs_fail_the_gram_check(tmp_path):
    """The CLI normalises --coeffs, so the diagonal check still passes."""
    code, _, manifest = verify_manifest(tmp_path, ["--coeffs=1,0;1,0;0.3,2"])
    assert code == 1
    assert passed(manifest) == {
        "gram_max_offdiag": False,
        "gram_max_diag_dev": True,
        "residual": False,
        "entanglement_deviation": False,
    }


def test_unnormalised_coefficients_fail_both_gram_checks():
    gram = gram_check(np.array([1.0, 1.0, 0.3 + 2.0j]))
    cert = SolutionCertificate(gram=gram, entanglement=1.0, residual=0.0)
    assert [check.passed for check in cert.checks] == [False, False, True, True]
    assert not cert.maximal


def test_random_theta_fails_only_the_residual_check(tmp_path):
    theta = np.random.default_rng(7).uniform(0.0, 2.0 * math.pi, 9)
    source = ["--theta", ",".join(repr(float(t)) for t in theta)]
    code, _, manifest = verify_manifest(tmp_path, source)
    assert code == 0
    checks = passed(manifest)
    assert checks["residual"] is False
    assert checks["gram_max_offdiag"] and checks["gram_max_diag_dev"]


def test_a_nan_value_fails_its_check():
    a = np.array([1.0, 0.0, 0.0, 0.0])  # orthonormal: each state is one cell per row
    cert = SolutionCertificate(gram=gram_check(a), entanglement=1.0, residual=math.nan)
    assert [check.passed for check in cert.checks] == [True, True, False, True]
    assert not cert.maximal
