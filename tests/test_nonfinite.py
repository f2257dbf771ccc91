"""NaN and infinite inputs are rejected, never reported as results."""

import math

import numpy as np
import pytest

from equibasis import entanglement, gram_check, state_entanglement
from equibasis.cli import ArgumentProblem, main, parse_coefficients

BAD = [math.nan, math.inf, -math.inf]


@pytest.mark.parametrize("bad", BAD)
def test_entanglement_rejects(bad):
    with pytest.raises(ValueError, match="not normalized"):
        entanglement(np.array([bad, 1.0], dtype=complex))


@pytest.mark.parametrize("bad", BAD)
def test_state_entanglement_rejects(bad):
    s = np.eye(2, dtype=complex) / math.sqrt(2)
    s[0, 1] = bad
    with pytest.raises(ValueError, match="not normalized"):
        state_entanglement(s)


@pytest.mark.parametrize("bad", BAD + [complex(0, math.nan)])
def test_gram_check_rejects(bad):
    with pytest.raises(ValueError, match="finite"):
        gram_check(np.array([bad, 1.0, 0.0], dtype=complex))


@pytest.mark.parametrize("text", ["nan,0;1,0", "1,0;0,inf", "1,0;-inf,0"])
def test_parse_coefficients_rejects(text):
    with pytest.raises(ArgumentProblem, match="not finite"):
        parse_coefficients(text)


def test_verify_exits_2_without_a_certificate(capsys):
    assert main(["verify", "--coeffs=nan,0;1,0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "not finite" in captured.err
