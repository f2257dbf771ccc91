"""`construct` writes the layout the library builds and the Gram oracle checks.

Each state's rows must sit on exactly the cells ``basis._support`` gives it,
and every written amplitude must be the entry of ``build_state`` there.
"""

import numpy as np
import pytest

from equibasis import PhaseVector, basis, build_state, synthesize_coefficients
from equibasis.cli import main


def _theta(d: int, kind: str) -> np.ndarray:
    if kind == "quadratic":
        alpha = np.arange(d, dtype=float)
        return np.pi * alpha * (alpha if d % 2 == 0 else alpha + 1.0) / d
    return np.random.default_rng(d).uniform(0.0, 2.0 * np.pi, d)


@pytest.mark.parametrize("kind", ["quadratic", "random"])
@pytest.mark.parametrize("d", range(2, 13))
def test_construct_rows_are_the_library_layout(capsys, d, kind):
    theta = _theta(d, kind)
    text = ",".join(repr(float(t)) for t in theta)
    assert main(["construct", "--theta", text, "--format", "csv"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[3] == "m,n,j,k,re,im"
    rows = [line.split(",") for line in lines[4:] if line]
    assert len(rows) == d**3

    a = synthesize_coefficients(PhaseVector(theta))
    for start in range(0, d**3, d):
        state = rows[start : start + d]
        m, n = int(state[0][0]), int(state[0][1])
        assert all((int(r[0]), int(r[1])) == (m, n) for r in state)
        assert (m, n) == divmod(start // d, d)

        j, k = basis._support(d, m, n)
        written = {(int(r[2]), int(r[3])) for r in state}
        assert written == set(zip(j.tolist(), k.tolist()))

        amp = build_state(a, m, n)
        for r in state:
            assert amp[int(r[2]), int(r[3])] == complex(float(r[4]), float(r[5]))
