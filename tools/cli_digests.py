"""Print a SHA-256 digest of every output of a fixed list of CLI runs.

Each run is an in-process call of ``equibasis.cli.main(argv)`` inside a
fresh temporary directory.  One line ``sha256  name`` is printed per data
file and per captured stdout and stderr, and one line ``exit N  name`` per
run.  Manifests are skipped: they carry a timestamp.  The runs cover curves
of all four families, every preset and ``--theta0`` at d = 64 and 256,
``construct`` in JSON and CSV to a file and to stdout, ``verify`` (up to
d = 128, where the Gram oracle skips the most repeated blocks) and
``search``, the exit-2 error paths of bad sources, curve settings and search
settings, and ``--help`` of the program and of each subcommand (at a fixed
``COLUMNS``).

Run the same script against two source trees and compare the listings to
check that a change keeps every CLI output byte for byte:

    PYTHONPATH=src python3 tools/cli_digests.py > head.txt
    PYTHONPATH=../base/src python3 tools/cli_digests.py > base.txt
    diff base.txt head.txt

The imported package's location is printed on stderr.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os
import sys
import tempfile
from pathlib import Path

import equibasis
from equibasis.cli import main


def phases(d: int, kind: str) -> str:
    """A fixed phase list of d entries: quadratic (flat) or scrambled."""
    if kind == "quadratic":
        values = [math.pi * a * (a if d % 2 == 0 else a + 1) / d for a in range(d)]
    else:
        values = [(0.731 * a * a + 1.9 * a) % (2.0 * math.pi) for a in range(d)]
    return ",".join(repr(v) for v in values)


def coefficients(d: int) -> str:
    """A fixed scrambled --coeffs list of d entries, not orthogonal under shifts."""
    pairs = [((0.37 * k * k) % 1.3 - 0.6, (0.91 * k + 0.2) % 1.1 - 0.5)
             for k in range(d)]
    return ";".join(f"{re!r},{im!r}" for re, im in pairs)


def grid(start: str, stop: str, step: str) -> list[str]:
    return ["--from", start, "--to", stop, "--step", step]


def runs() -> list[tuple[str, list[str]]]:
    """(name, argv) of every run, in order.

    A run whose name ends in ``-stdout``, or starts with ``error-`` or
    ``help-``, writes to stdout only; every other run also gets
    ``--output NAME.json`` or ``NAME.csv``.
    """
    out = []
    for family in ("d3-real", "d3-complex", "d4-real", "d4-complex"):
        out.append((f"curve-{family}", ["curve", "--family", family, *grid("0", "360", "0.25")]))
    out += [
        ("curve-d4-complex-ragged", ["curve", "--family", "d4-complex", *grid("10", "50.3", "0.7")]),
        ("curve-d3-real-one-point", ["curve", "--family", "d3-real", *grid("0", "0", "1")]),
    ]
    for key in ("d=2,v=0", "d=3,v=0", "d=4,v=0", "d=4,v=1", "d=5,v=0"):
        name = "curve-preset-" + key.replace("=", "").replace(",", "-")
        out.append((name, ["curve", "--interpolate", "--preset", key, *grid("0", "1", "0.001")]))
    for name, theta0, span in [
        ("curve-theta0-64", phases(64, "quadratic"), grid("0", "1", "0.002")),
        ("curve-theta0-256", phases(256, "quadratic"), grid("0", "1", "0.004")),
        ("curve-theta0-64-scrambled", phases(64, "scrambled"), grid("0.25", "0.75", "0.003")),
    ]:
        out.append((name, ["curve", "--interpolate", "--theta0", theta0, *span]))

    sources = {
        "d3-real": ["--family", "d3-real", "--param-deg", "30"],
        "d4-complex": ["--family", "d4-complex", "--param-deg", "0"],
        "theta-16": ["--theta", phases(16, "quadratic")],
        "theta-33": ["--theta", phases(33, "scrambled")],
    }
    for label, source in sources.items():
        for fmt in ("json", "csv"):
            out.append((f"construct-{label}-{fmt}", ["construct", *source, "--format", fmt]))
    out += [
        ("construct-theta-16-json-stdout", ["construct", *sources["theta-16"], "--format", "json"]),
        ("construct-theta-33-csv-stdout", ["construct", *sources["theta-33"], "--format", "csv"]),
        ("verify-preset-d5", ["verify", "--preset", "d=5,v=0"]),
        ("verify-theta-48", ["verify", "--theta", phases(48, "quadratic")]),
        ("verify-theta-20-scrambled", ["verify", "--theta", phases(20, "scrambled")]),
        ("verify-family-d3-complex", ["verify", "--family", "d3-complex", "--param-deg", "60"]),
        ("verify-coeffs", ["verify", "--coeffs=0.6,0;0,0.8;0,0"]),
        ("verify-theta-64", ["verify", "--theta", phases(64, "quadratic")]),
        ("verify-theta-64-scrambled", ["verify", "--theta", phases(64, "scrambled")]),
        ("verify-theta-128", ["verify", "--theta", phases(128, "quadratic")]),
        ("verify-theta-128-scrambled", ["verify", "--theta", phases(128, "scrambled")]),
        ("verify-coeffs-16", ["verify", f"--coeffs={coefficients(16)}"]),
        ("search-d6", ["search", "--d", "6", "--seed", "0", "--restarts", "2"]),
        ("search-d8", ["search", "--d", "8", "--seed", "3", "--restarts", "2"]),
        ("search-d12-capped", ["search", "--d", "12", "--restarts", "1", "--max-iters", "200"]),
        ("error-verify-unknown-preset", ["verify", "--preset", "d=7"]),
        ("error-curve-unknown-preset",
         ["curve", "--interpolate", "--preset", "d=7", *grid("0", "1", "0.5")]),
        ("error-search-d1", ["search", "--d", "1"]),
        ("error-search-restarts-0", ["search", "--d", "4", "--restarts", "0"]),
        ("error-search-max-iters-0", ["search", "--d", "4", "--max-iters", "0"]),
        ("error-search-tol-0", ["search", "--d", "4", "--tol", "0"]),
        ("error-verify-bad-coeffs", ["verify", "--coeffs=1,0;2"]),
        ("error-verify-pi-over-0", ["verify", "--theta", "0,pi/0"]),
        ("error-verify-conflicting-d", ["verify", "--d", "5", "--preset", "d=4"]),
        ("error-curve-interpolate-family",
         ["curve", "--interpolate", "--family", "d3-real", *grid("0", "1", "0.5")]),
        ("error-curve-preset-without-interpolate",
         ["curve", "--preset", "d=3", *grid("0", "1", "0.5")]),
        ("error-curve-pi-over-0",
         ["curve", "--interpolate", "--theta0", "0,pi/0", *grid("0", "1", "0.5")]),
        ("error-curve-range-above-1",
         ["curve", "--interpolate", "--preset", "d=3", *grid("0", "1.5", "0.5")]),
        ("help-top", ["--help"]),
    ]
    out += [(f"help-{cmd}", [cmd, "--help"]) for cmd in ("construct", "curve", "verify", "search")]
    return out


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def main_digests() -> int:
    print(f"equibasis from {Path(equibasis.__file__).parent}", file=sys.stderr)
    os.environ["COLUMNS"] = "80"  # argparse wraps --help to the terminal width
    home = Path.cwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)  # relative --output paths keep the "wrote ..." lines fixed
        try:
            for name, argv in runs():
                data_file = None
                if not (name.endswith("-stdout") or name.startswith(("error-", "help-"))):
                    csv = argv[0] == "curve" or "csv" in argv
                    data_file = Path(name + (".csv" if csv else ".json"))
                    argv = argv + ["--output", str(data_file)]
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = main(argv)
                print(f"exit {code}  {name}")
                print(f"{digest(out.getvalue().encode('utf-8'))}  {name}.stdout")
                print(f"{digest(err.getvalue().encode('utf-8'))}  {name}.stderr")
                if data_file is not None:
                    print(f"{digest(data_file.read_bytes())}  {data_file}")
        finally:
            os.chdir(home)
    return 0


if __name__ == "__main__":
    sys.exit(main_digests())
