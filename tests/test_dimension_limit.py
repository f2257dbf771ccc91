"""The largest accepted dimension: an oversized --theta, --theta0, --coeffs or
`search --d` is refused with exit 2 before anything of size d^2 exists."""

import numpy as np
import pytest

from equibasis import cli, core
from equibasis.cli import MAX_DIMENSION, main


def _refuse_allocation(monkeypatch):
    """Make every route to a d x d array fail the test if it is taken."""

    def fail(*args, **kwargs):
        raise AssertionError("reached an allocation of size d^2")

    for module, name in [
        (cli, "synthesize_coefficients"),
        (cli, "gram_check"),
        (cli, "alternating_projection_search"),
        (core, "_phase_matrix"),
    ]:
        monkeypatch.setattr(module, name, fail)


def _phases(d: int) -> str:
    return ",".join(["0.5"] * d)


def _coeffs(d: int) -> str:
    return ";".join(["1,0"] * d)


def _runs(d: int) -> list[tuple[str, list[str]]]:
    """(flag giving the dimension, argv) of every command that takes one."""
    grid = ["--from", "0", "--to", "1", "--step", "0.5"]
    return [
        ("--d", ["search", "--d", str(d)]),
        ("--theta", ["construct", "--theta", _phases(d)]),
        ("--theta", ["verify", "--theta", _phases(d)]),
        ("--theta0", ["curve", "--interpolate", "--theta0", _phases(d), *grid]),
        ("--coeffs", ["verify", f"--coeffs={_coeffs(d)}"]),
    ]


@pytest.mark.parametrize("d", [20_000, 200_000])
def test_oversized_dimension_is_refused_before_allocation(monkeypatch, tmp_path, capsys, d):
    _refuse_allocation(monkeypatch)
    out = tmp_path / "out"
    for flag, argv in _runs(d):
        assert main(argv + ["--output", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: {flag}: dimension {d} is above the largest supported, {MAX_DIMENSION}\n"
        )
        assert not out.exists()


def test_bound_is_inclusive(monkeypatch, tmp_path, capsys):
    monkeypatch.chdir(tmp_path)  # curve writes curve.csv by default
    monkeypatch.setattr(cli, "MAX_DIMENSION", 4)
    for _, argv in _runs(4):
        assert main(argv + ["--quiet"]) in (0, 1)  # the flat --coeffs fail verification
    capsys.readouterr()
    _refuse_allocation(monkeypatch)
    for flag, argv in _runs(5):
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith(f"error: {flag}: dimension 5 is above")


class Reached(Exception):
    """Raised where a run gets past the bound; ``main`` does not catch it."""


def test_largest_dimension_is_accepted(monkeypatch, tmp_path, capsys):
    """d = 1024 passes the bound: each run gets as far as synthesis, the search,
    or construct's own row limit."""
    assert MAX_DIMENSION == 1024
    reached = []

    def record(value):
        reached.append(value.d)
        raise Reached

    monkeypatch.setattr(cli, "synthesize_coefficients", record)
    monkeypatch.setattr(cli, "alternating_projection_search", record)
    search_run, construct_run, verify_run, curve_run, coeffs_run = (
        argv for _, argv in _runs(MAX_DIMENSION)
    )
    for argv in (search_run, verify_run, curve_run):
        with pytest.raises(Reached):
            main(argv + ["--output", str(tmp_path / "out")])
    assert reached == [MAX_DIMENSION] * 3

    assert main(construct_run) == 2
    assert capsys.readouterr().err.startswith(f"error: --theta has {MAX_DIMENSION} phases")

    # Raw coefficients are not synthesized: the source reader returns them.
    seed, _ = cli.read_source(cli.build_parser().parse_args(coeffs_run))
    assert isinstance(seed, np.ndarray) and seed.size == MAX_DIMENSION
