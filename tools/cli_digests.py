"""Print a SHA-256 digest of every output of a fixed list of CLI runs.

Each run is an in-process call of ``equibasis.cli.main(argv)`` inside one
temporary directory.  One line ``sha256  name`` is printed per data file,
per manifest and per captured stdout and stderr, and one line
``exit N  name`` per run.  A manifest is digested with the value of its
``timestamp`` masked, the one field that changes between runs; its
``command`` is shell-quoted, and a ``--theta`` with spaces pins that
quoting.  The runs cover curves of all four families, every preset,
``--theta0`` at d = 64 and 256 and a ``--theta0`` out of [0, 2*pi),
``construct`` in JSON and CSV to a file and to stdout, ``verify``
(d = 512, where the Gram oracle skips the most repeated blocks, and
``MAX_DIMENSION``, d = 1024; Bjorck's flat phases at p = 509, a second
flat family at large d; and that spaced ``--theta``) and ``search`` (the
largest seed, at an odd d, and d = 1024 pin the restart stream), the
exit-2 error paths of bad sources, curve settings and search settings,
``--help`` of the program and of each subcommand (at a fixed
``COLUMNS``), and runs that write a longer, then a shorter output and
manifest to the same ``--output`` (``construct`` JSON and CSV, ``curve``,
``verify`` and ``search``), digested after each run.  Last, one line
``file  name`` is printed per file left in the directory, sorted, so a
stray or a missing manifest changes the listing.

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
import re
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


def bjorck(p: int) -> str:
    """Bjorck's flat phases for an odd prime p (Bjorck 1985, 1990), with
    (k/p) the Legendre symbol: arccos(1 / (1 + sqrt(p))) * (k/p) for
    p = 1 (mod 4), else arccos((1 - p) / (1 + p)) where (k/p) = -1 and 0
    elsewhere."""
    legendre = [0] + [1 if pow(k, (p - 1) // 2, p) == 1 else -1 for k in range(1, p)]
    if p % 4 == 1:
        values = [math.acos(1.0 / (1.0 + math.sqrt(p))) * s for s in legendre]
    else:
        values = [math.acos((1.0 - p) / (1.0 + p)) if s == -1 else 0.0 for s in legendre]
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
    ``help-``, writes to stdout only; a run whose argv has its own
    ``--output`` writes there; every other run also gets
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
    # Phases out of range, -0.0 and one stored as 2*pi; the stack at t = 1 reaches 2*pi.
    out.append(("curve-theta0-out-of-range",
                ["curve", "--interpolate", "--theta0=-1.5,7.0,-0.0,-1e-17,0.25,12.5,-9.0,3.0",
                 *grid("0.5", "1", "0.01")]))

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
        # Where the Gram oracle skips the most repeated sorts.
        ("verify-theta-512", ["verify", "--theta", phases(512, "quadratic")]),
        # The largest dimension, where ``core.ORTHO_TOL``'s comment bounds the Gram error.
        ("verify-theta-1024", ["verify", "--theta", phases(1024, "quadratic")]),
        # A second flat family at large d, unlike the quadratic phases.
        ("verify-bjorck-509", ["verify", "--theta", bjorck(509)]),
        ("verify-coeffs-16", ["verify", f"--coeffs={coefficients(16)}"]),
        # An argument with spaces: the manifest's command must quote it.
        ("verify-theta-spaced", ["verify", "--theta", "0, pi/2, pi"]),
        ("search-d6", ["search", "--d", "6", "--seed", "0", "--restarts", "2"]),
        ("search-d8", ["search", "--d", "8", "--seed", "3", "--restarts", "2"]),
        ("search-d12-capped", ["search", "--d", "12", "--restarts", "1", "--max-iters", "200"]),
        # The restart stream: the largest Philox key at an odd d, and 256 blocks.
        ("search-d33-largest-seed", ["search", "--d", "33", "--seed", str(2**64 - 1),
                                     "--restarts", "2", "--max-iters", "40"]),
        ("search-d1024-one-sweep", ["search", "--d", "1024", "--restarts", "1", "--max-iters", "1"]),
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
        ("error-verify-unparsable-coeffs", ["verify", "--coeffs=a,0;1,0"]),
        ("error-verify-one-coeff", ["verify", "--coeffs=1,0"]),
        ("error-verify-zero-coeffs", ["verify", "--coeffs=0,0;0,0"]),
        ("error-verify-family-without-param", ["verify", "--family", "d3-real"]),
        ("error-curve-reversed-range", ["curve", "--family", "d3-real", *grid("10", "5", "1")]),
        ("help-top", ["--help"]),
    ]
    out += [(f"help-{cmd}", [cmd, "--help"]) for cmd in ("construct", "curve", "verify", "search")]
    # A longer, then a shorter output and manifest to the same file.
    for fmt in ("json", "csv"):
        target = ["--format", fmt, "--output", f"overwrite-construct.{fmt}"]
        out += [
            (f"overwrite-construct-{fmt}-theta-16", ["construct", *sources["theta-16"], *target]),
            (f"overwrite-construct-{fmt}-d3-real", ["construct", *sources["d3-real"], *target]),
        ]
    target = ["--output", "overwrite-curve.csv"]
    out += [
        ("overwrite-curve-long", ["curve", "--family", "d4-real", *grid("0", "360", "0.25"), *target]),
        ("overwrite-curve-short", ["curve", "--family", "d4-real", *grid("0", "90", "1"), *target]),
    ]
    target = ["--output", "overwrite-verify.json"]
    out += [
        ("overwrite-verify-preset-d3", ["verify", "--preset", "d=3,v=0", *target]),
        ("overwrite-verify-coeffs", ["verify", "--coeffs=0.6,0;0,0.8;0,0", *target]),
    ]
    target = ["--output", "overwrite-search.json"]
    out += [
        ("overwrite-search-d8", ["search", "--d", "8", "--seed", "3", "--restarts", "2", *target]),
        ("overwrite-search-d4", ["search", "--d", "4", "--seed", "0", *target]),
    ]
    return out


def with_output(name: str, argv: list[str]) -> tuple[list[str], Path | None]:
    """The argv a run is made with, and the data file it writes (None when
    it writes to stdout only), by the rule of :func:`runs`."""
    if "--output" in argv:
        return argv, Path(argv[argv.index("--output") + 1])
    if name.endswith("-stdout") or name.startswith(("error-", "help-")):
        return argv, None
    csv = argv[0] == "curve" or "csv" in argv
    data_file = Path(name + (".csv" if csv else ".json"))
    return argv + ["--output", str(data_file)], data_file


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def masked_manifest(path: Path) -> bytes:
    """The manifest's bytes with its timestamp value blanked."""
    return re.sub(rb'"timestamp": "[^"]*"', b'"timestamp": ""', path.read_bytes())


def main_digests() -> int:
    print(f"equibasis from {Path(equibasis.__file__).parent}", file=sys.stderr)
    os.environ["COLUMNS"] = "80"  # argparse wraps --help to the terminal width
    home = Path.cwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)  # relative --output paths keep the "wrote ..." lines fixed
        try:
            for name, argv in runs():
                argv, data_file = with_output(name, argv)
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = main(argv)
                print(f"exit {code}  {name}")
                print(f"{digest(out.getvalue().encode('utf-8'))}  {name}.stdout")
                print(f"{digest(err.getvalue().encode('utf-8'))}  {name}.stderr")
                if data_file is not None:
                    print(f"{digest(data_file.read_bytes())}  {data_file}")
                    manifest = data_file.with_suffix(".manifest.json")
                    print(f"{digest(masked_manifest(manifest))}  {manifest}")
            for name in sorted(os.listdir()):
                print(f"file  {name}")
        finally:
            os.chdir(home)
    return 0


if __name__ == "__main__":
    sys.exit(main_digests())
