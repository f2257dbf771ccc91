"""Command-line interface: construct bases, emit entanglement curves,
verify certificates, and search for maximally entangled endpoints.

Angles are accepted in degrees on the command line (matching the usual
plots) and converted to radians exactly once at this boundary; explicit
phase lists accept radians with a small `pi` syntax (``pi``, ``pi/2``,
``2pi/3``).  Structured results are JSON, curves are CSV, and an output
file gets a ``*.manifest.json`` sibling recording the command, config and
versions (``verify``'s also names each certificate check with its value,
tolerance and verdict).  Data files are byte-identical across repeated
runs; only the manifest carries a timestamp.  Every output goes through
``save``, which says which outputs get a manifest and why it is written
first; ``_overwrite`` says how an existing file is rewritten and what a
killed run leaves.  ``--quiet`` silences only the ``wrote ...`` and
grid-maximum lines; ``verify`` and ``search`` still write their JSON.

The exit codes are listed once, in README's "Exit codes": ``main``
returns each one, and ``entrypoint`` turns any exception ``main`` lets
through into exit 4.  The standard streams are written only by
:func:`write_out` (data, JSON results, status lines, and argparse's help
and version text: a stdout that is closed or cannot be written is exit 3)
and :func:`write_err` (messages, argparse's usage and error text included:
a stderr that is closed or cannot be written loses the text and never
changes the exit code).  Both flush every write, so a failure meets its
rule inside ``main`` and never in the interpreter's exit-time flush.
"""

from __future__ import annotations

import argparse
import cmath
import contextlib
import io
import json
import math
import os
import re
import shlex
import stat
import sys
import traceback
from collections.abc import Iterable, Iterator
from datetime import datetime, timezone
from functools import lru_cache
from pathlib import Path

import numpy as np

from . import __version__
from .basis import _support, gram_check
from .core import PhaseVector, entanglement, synthesize_coefficients
from .families import Family, interpolate, preset_phases
from .search import SearchConfig, SolutionCertificate, alternating_projection_search

# Grid points per chunk of `curve`: one coefficient call (a family over an
# array of parameters, or one stacked interpolation and synthesis), one
# row-wise entropy call and one block of CSV text each.  Bounds the working
# set at d = 256 to a few (256, 256) complex arrays (1 MB each).
CURVE_CHUNK = 256

# One `construct` row per format: (text before the row, field separator,
# text after the row, row separator).  The JSON layout is that of a row list
# at depth 2 under ``json.dumps(indent=2)``.
_ROW_LAYOUT = {
    "json": ("    [\n      ", ",\n      ", "\n    ]", ",\n"),
    "csv": ("", ",", "", "\n"),
}

# Most points a `curve` grid may have; a finer --step is refused (exit 2)
# before the grid is built.  Rows are streamed per chunk, so only the grid
# (8 bytes a point) and one chunk are held: 10^6 points of a d = 4 family
# take about 2.8 s and 46 MB peak RSS in a fresh process.
MAX_CURVE_POINTS = 10**6

# Most rows `construct` may write: d^3 for dimension d, so d = 256 is the
# largest accepted (16.8 M rows, about 1.8 GB of JSON or 0.9 GB of CSV).  A
# larger --theta is refused (exit 2) before any synthesis.
MAX_CONSTRUCT_ROWS = 256**3

# Largest dimension d any subcommand accepts.  A --theta, --theta0 or
# --coeffs list longer than this, or a larger `search --d`, is refused
# (exit 2) before anything of size d^2 is allocated, such as the d x d phase
# matrix (``core._phase_matrix`` states what it and a search's copy of it
# take).  `verify` of the quadratic phases (`main` in process, one BLAS
# thread, 2-vCPU Xeon VM) takes about 0.07 s at d = 256 and 0.6-0.7 s at
# d = 512 (three runs each), and 8-9 s and 130 MB peak RSS at d = 1024
# (ru_maxrss of the whole process; two runs).  Nearly all of it is the Gram
# oracle's per-label work, at d = 1024: the two row takes of the layout into
# fresh 8 MB arrays (4.4-4.6 ms), the wrapped diagonal's difference and test
# (2.5-2.7 ms), and the comparison with the last rows (0.8 ms).
MAX_DIMENSION = 1024

# Output formats each subcommand writes.  Every subcommand takes --format
# from the shared parent parser, so its --help text is the same everywhere;
# a format the subcommand does not write is refused (exit 2) before any work.
OUTPUT_FORMATS = {
    "construct": ("json", "csv"), "curve": ("csv",), "verify": ("json",), "search": ("json",)
}

# Numeric flags that must be finite, by argparse destination.
FINITE_FLAGS = {
    "param_deg": "--param-deg", "start": "--from", "stop": "--to", "step": "--step", "tol": "--tol"
}

_ANGLE_RE = re.compile(
    r"^([+-]?(?:\d+\.?\d*|\.\d+)?)\s*\*?\s*pi\s*(?:/\s*(\d+\.?\d*|\.\d+))?$"
)


class ArgumentProblem(ValueError):
    """Invalid command-line input; reported on stderr with exit code 2, like any ValueError."""


def parse_angle(token: str) -> float:
    """One angle in radians: a float, or 'pi', '-pi/2', '2pi/3', '0.5*pi'."""
    token = token.strip()
    m = _ANGLE_RE.match(token)
    if m:
        coef_text = m.group(1)
        coef = 1.0 if coef_text in ("", "+") else -1.0 if coef_text == "-" else float(coef_text)
        denom = float(m.group(2)) if m.group(2) else 1.0
        if denom == 0.0:
            raise ArgumentProblem(f"angle {token!r} divides by zero")
        return coef * math.pi / denom
    try:
        return float(token)
    except ValueError:
        raise ArgumentProblem(f"cannot parse angle {token!r}") from None


def parse_angle_list(text: str) -> np.ndarray:
    return np.array([parse_angle(t) for t in text.split(",")], dtype=float)


def parse_preset_key(text: str) -> tuple[int, int]:
    """Parse 'd=4,v=0' (variant optional, default 0)."""
    m = re.match(r"^d=(\d+)(?:,v=(\d+))?$", text.strip())
    if not m:
        raise ArgumentProblem(f"preset must look like 'd=4,v=0', got {text!r}")
    return int(m.group(1)), int(m.group(2) or 0)


def parse_coefficients(text: str) -> np.ndarray:
    """Parse 're,im;re,im;...' into a complex vector."""
    entries = []
    for part in text.split(";"):
        pieces = part.split(",")
        if len(pieces) != 2:
            raise ArgumentProblem(f"coefficient entry must be 're,im', got {part!r}")
        try:
            z = complex(float(pieces[0]), float(pieces[1]))
        except ValueError:
            raise ArgumentProblem(f"cannot parse coefficient {part!r}") from None
        if not cmath.isfinite(z):
            raise ArgumentProblem(f"coefficient {part!r} is not finite")
        entries.append(z)
    if len(entries) < 2:
        raise ArgumentProblem("need at least 2 coefficients")
    return np.array(entries, dtype=complex)


def check_dimension(d: int, flag: str) -> None:
    """Refuse a dimension d above ``MAX_DIMENSION``, naming the flag that gave it."""
    if d > MAX_DIMENSION:
        raise ArgumentProblem(f"{flag}: dimension {d} is above the largest supported, {MAX_DIMENSION}")


def make_grid(start: float, stop: float, step: float) -> np.ndarray:
    """Strictly increasing grid start, start+step, ... up to stop.

    The grid ends at the last start + i*step not above stop, to within 1e-9
    of a step, so stop is a grid point only when the step divides the range:
    ``--from 10 --to 50.3 --step 0.7`` gives 58 points, ending at 49.9.
    The point count is checked before the grid is built: a step that gives
    more than ``MAX_CURVE_POINTS`` points (or an infinite count) is refused.
    Point i is min(start + i*step, stop), with Python's ``min`` tie rule
    (``np.minimum`` would turn a 0.0 point into a --to of -0.0).
    """
    if step <= 0.0:
        raise ArgumentProblem(f"step must be positive, got {step}")
    if stop < start:
        raise ArgumentProblem(f"range end {stop} is below start {start}")
    span = (stop - start) / step + 1e-9
    if not span < MAX_CURVE_POINTS:
        raise ArgumentProblem(
            f"--step {step} gives more than {MAX_CURVE_POINTS} grid points"
        )
    n = int(math.floor(span))
    points = start + np.arange(n + 1) * step
    return np.where(stop < points, stop, points)


def utc_timestamp() -> str:
    return datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


def versions_line() -> str:
    return (
        f"equibasis {__version__}; "
        f"python {sys.version.split()[0]}; numpy {np.__version__}"
    )


def write_manifest(output: Path, argv: list[str], record: dict) -> None:
    """Write the ``*.manifest.json`` sibling of output.

    The name replaces the output's suffix, so outputs that differ only in
    their suffix (``basis.json``, ``basis.csv``) share one manifest, which
    describes whichever ran last.  Its keys are, in order: ``command`` (the
    command line, quoted by ``shlex.join`` so that a POSIX shell re-runs
    it), the blocks of ``record`` in the caller's order
    (``config`` for every subcommand, then ``checks`` for ``verify``),
    ``versions`` and ``timestamp``.
    """
    manifest = {"command": "equibasis " + shlex.join(argv), **record,
                "versions": versions_line(), "timestamp": utc_timestamp()}
    _overwrite(output.with_suffix(".manifest.json"), [json.dumps(manifest, indent=2) + "\n"])


def write_text(path: Path, chunks: Iterable[str]) -> None:
    """Write an iterable of string chunks, in order, to path as UTF-8.

    The data half of :func:`save`, kept under its own name because
    ``bench/run.py`` times it; :func:`_overwrite` owns the write's rules.
    """
    _overwrite(path, chunks)


def _overwrite(path: Path, chunks: Iterable[str]) -> None:
    """Write chunks to path as UTF-8 from offset 0, then cut the file there.

    Every data file and manifest is written here.  The file is opened by
    ``os.open`` without ``O_TRUNC``: ext4 (``auto_da_alloc``), XFS and
    btrfs start writeback on the close of a file that was truncated and
    rewritten.  On ext4 on a 2-vCPU Xeon VM a rewrite took 122 us truncated
    against 23 us in place for 600 bytes, and 4.2 against 0.8 ms for 3.4 MB.
    Only a rewrite gains: a write to a new path costs about 10 us more, on a
    create of about 0.5 ms.

    The cut runs in ``finally``, and only when the file is longer than the
    text, so a chunk that raises leaves exactly the text written before it.
    A process killed before the cut (SIGKILL, SIGTERM without a handler,
    ``os._exit``) leaves the text flushed so far followed by the old file's
    tail, or the whole old file if nothing was flushed yet; that may still
    parse, where ``O_TRUNC`` would have left a short or empty file.  A crash
    of the machine can also leave the new length over old bytes, as nothing
    is flushed on close any more.  That is the price of the speed.  The
    manifest, written before the data (:func:`save`), describes the killed
    run, so comparing the data's row count with its config shows the mix.
    Only a regular file is cut; a FIFO or a device such as /dev/null is
    written as it is.  The path is written through (a symlink is followed,
    hard links and the mode are kept), and nothing is renamed or synced.
    """
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    with open(fd, "w", encoding="utf-8", newline="") as fh:
        try:
            fh.writelines(chunks)
        finally:
            fh.flush()
            info = os.fstat(fh.fileno())
            if stat.S_ISREG(info.st_mode) and info.st_size > fh.tell():
                fh.truncate()


def save(path: Path, argv: list[str], chunks: Iterable[str], record: dict) -> None:
    """Write the manifest of output path (:func:`write_manifest`), then its
    data (:func:`write_text`): the one write step of every subcommand.

    The manifest goes first, so the one beside a data file always names the
    last run that wrote to it, also a run that failed or was killed part
    way (what such a run leaves in the data: :func:`_overwrite`).  An
    output that exists and is not a regular file (a FIFO, a directory) gets
    no manifest, and a directory then fails in the data write (exit 3) with
    no manifest left behind.  Nor does any path under /dev or /proc,
    whatever it is: a sibling there (/dev/stdout.manifest.json) is no place
    for one.  ``os.stat`` follows /dev/stdout to whatever fd 1 is, so
    /dev/stdout redirected to a regular file gets its data and no manifest
    by the path rule, not the type.  A symlink elsewhere that points to a
    regular file counts as regular, and its manifest goes beside the link.
    """
    try:
        regular = stat.S_ISREG(os.stat(path).st_mode)
    except FileNotFoundError:
        regular = True  # a new output is created as a regular file
    if regular and not os.path.abspath(path).startswith(("/dev/", "/proc/")):
        write_manifest(path, argv, record)
    write_text(path, chunks)


def _write(stream, chunks: Iterable[str]) -> None:
    """Write chunks to a standard stream and flush it.

    The flush makes a failed write (a full device, a pipe whose reader has
    gone) raise here, inside ``main``; left buffered, the text would fail
    only in the interpreter's exit-time flush, which prints ``Exception
    ignored`` and exits 120 whatever ``main`` returned.  After a failure the
    stream's fd is pointed at ``os.devnull``, the ``BrokenPipeError`` idiom
    of Python's ``signal`` docs, so what the stream still buffers cannot
    fail that flush again; a stream without a fd keeps its buffer.  The fd
    stays there, also in a process that calls ``main`` and goes on.
    """
    try:
        stream.writelines(chunks)
        stream.flush()
    except OSError:
        with contextlib.suppress(OSError, ValueError), open(os.devnull, "wb") as devnull:
            os.dup2(devnull.fileno(), stream.fileno())
        raise


def write_out(chunks: Iterable[str]) -> None:
    """Write chunks to stdout: the one writer of data, JSON results, status
    lines and argparse's help and version text.

    Its one failure rule: a stdout that is closed (Python starts with
    ``sys.stdout`` None when fd 1 is) or cannot be written raises
    ``OSError`` (exit 3), so no run that writes here exits 0, or 120, with
    its output lost.  The write is flushed (:func:`_write`), so ``verify``
    and ``search`` fail before any ``--output`` file is written, whatever
    the output's size.
    """
    if sys.stdout is None:
        raise OSError("standard output is closed")
    _write(sys.stdout, chunks)


def write_err(text: str) -> None:
    """Write text to stderr: the one writer of messages, argparse's usage
    and error text included.

    Its one failure rule: the exit code carries the outcome, so a stderr
    that is closed (``sys.stderr`` None, where ``print`` and argparse would
    fall back to stdout) or cannot be written loses the text and never
    changes the code.  The write is flushed (:func:`_write`), so a full
    stderr cannot turn the code into 120 at exit either.
    """
    if sys.stderr is not None:
        with contextlib.suppress(OSError):
            _write(sys.stderr, [text])


def report(args, argv: list[str], payload: dict, record: dict) -> None:
    """Write payload as indented JSON and a newline to stdout; with --output
    also :func:`save` that text, with ``record`` in its manifest
    (:func:`write_manifest`)."""
    text = [json.dumps(payload, indent=2), "\n"]
    write_out(text)
    if args.output is not None:
        save(args.output, argv, text, record)


def say(args, message: str) -> None:
    if not args.quiet:
        write_out([message, "\n"])


# --- coefficient sources -------------------------------------------------

# Every source flag, in the order the no-source message lists them.
SOURCE_FLAGS = ("theta", "theta0", "family", "preset", "coeffs")
FAMILY_NAMES = ", ".join(f.value for f in Family)


def read_source(
    args, usable: tuple[str, ...] = SOURCE_FLAGS, misuse: str = ""
) -> tuple[PhaseVector | Family | np.ndarray, dict]:
    """The one coefficient source of ``construct``, ``verify`` or ``curve``.

    Exactly one of the source flags the subcommand defines must be given,
    and it must be one of ``usable`` (else ``misuse`` is the error), checked
    before its value is parsed.  Returns the parsed seed, a
    :class:`PhaseVector` (--theta, --theta0, --preset), a :class:`Family`
    (--family) or raw coefficients (--coeffs), with its description for the
    output and manifest.
    """
    defined = [name for name in SOURCE_FLAGS if name in vars(args)]
    given = [name for name in defined if getattr(args, name) is not None]
    if len(given) != 1:
        flags = " | ".join("--" + name for name in defined)
        raise ArgumentProblem(f"exactly one coefficient source required ({flags})")
    kind = given[0]
    if kind not in usable:
        raise ArgumentProblem(misuse)
    text = getattr(args, kind)
    if kind == "family":
        try:
            family = Family(text)
        except ValueError:
            raise ArgumentProblem(f"unknown family {text!r}; choose from: {FAMILY_NAMES}") from None
        return family, {"family": family.value}
    if kind == "preset":
        d, variant = parse_preset_key(text)
        return preset_phases(d, variant), {"preset": {"d": d, "variant": variant}}
    values = parse_coefficients(text) if kind == "coeffs" else parse_angle_list(text)
    check_dimension(values.size, "--" + kind)
    if kind == "coeffs":
        return values, {"coeffs": text}
    theta = PhaseVector(values)
    return theta, {kind + "_rad": [float(t) for t in theta.theta]}


def resolve_source(args, max_rows: float = math.inf) -> tuple[np.ndarray, dict]:
    """Turn the coefficient-source flags into (coefficients, description).

    The source is read by :func:`read_source`.  A --theta of d phases whose
    basis has more than ``max_rows`` rows (d^3) is refused before it is
    synthesized.
    """
    seed, desc = read_source(args)
    if isinstance(seed, PhaseVector):
        if seed.d**3 > max_rows:
            raise ArgumentProblem(
                f"--theta has {seed.d} phases: the basis would have {seed.d**3} rows, "
                f"more than {max_rows}"
            )
        a = synthesize_coefficients(seed)
    elif isinstance(seed, Family):
        if args.param_deg is None:
            raise ArgumentProblem("--family requires --param-deg")
        a = seed.coefficients(math.radians(args.param_deg))
        desc = dict(desc, param_deg=args.param_deg)
    else:
        a = seed
        scale = float(np.abs(a.view(float)).max())
        if scale == 0.0:
            raise ArgumentProblem("coefficients must not all be zero")
        with np.errstate(over="ignore"):
            norm = float(np.linalg.norm(a))
        if not math.sqrt(sys.float_info.min) <= norm < math.inf:
            # The squares overflowed or went subnormal: rescale by the
            # largest component first, one real part at a time (complex
            # division by a subnormal overflows).  Other inputs keep the
            # direct division.
            a = (a.view(float) / scale).view(complex)
            norm = float(np.linalg.norm(a))
        a = a / norm  # escape hatch accepts hand-typed, roughly normalized input

    if args.d is not None and args.d != a.size:
        raise ArgumentProblem(f"--d {args.d} conflicts with source dimension {a.size}")
    return a, desc


# --- subcommands ----------------------------------------------------------

def cmd_construct(args, argv: list[str]) -> int:
    """Write all d^2 basis states as JSON or CSV, streamed one state at a time.

    At most ``MAX_CONSTRUCT_ROWS`` rows (d^3) are written; a larger basis is
    refused before any synthesis.
    """
    a, desc = resolve_source(args, max_rows=MAX_CONSTRUCT_ROWS)
    fmt = args.format or "json"
    chunks = construct_chunks(a, desc, entanglement(a), fmt)
    if args.output is None:
        write_out(chunks)
    else:
        save(args.output, argv, chunks, {"config": {"source": desc, "d": a.size, "format": fmt}})
        say(args, f"wrote {args.output}")
    return 0


def construct_chunks(a: np.ndarray, desc: dict, e_value: float, fmt: str) -> Iterator[str]:
    """The `construct` data file as text chunks: header, one chunk per state, tail.

    State (m, n) has the d rows (m, n, j, k, re a_i, im a_i), where (j, k)
    is the cell that :func:`basis._support` gives a_i.  In that layout j
    depends on the label only through m, and k only through
    r = (m+n) mod d, so one ``_support`` call over the d labels (s, 0)
    returns the rotation-table rows that give every j column (row m) and
    every k column (row r).  Only d distinct amplitude pairs occur, so each
    is formatted once.  A row ends in k and cell i, so the d^2 tails
    ``tails[r][i]`` are joined once per call (7 MB of CSV or 8 MB of JSON
    tails at d = 256, under 1 % of the output, ``MAX_CONSTRUCT_ROWS``).
    Each state is then one ``"".join`` over a reused list of 3d slots: the
    row separator and (m, n) lead, the j column of this m, and the tails of
    this r.  No per-row string is built, and the d^3 rows and the whole
    text are never held at once.  The JSON chunks splice the rows into
    ``json.dumps(indent=2)`` of the header payload with an empty ``states``
    list, and give the bytes that dumping the full payload would give; the
    CSV rows use ``repr`` of each float.
    """
    d = a.size
    pairs = [(float(z.real), float(z.imag)) for z in a]
    if fmt == "json":
        payload = {
            "d": d,
            "source": desc,
            "entanglement": e_value,
            "coefficients": [list(p) for p in pairs],
            "states": [],
        }
        head, tail = json.dumps(payload, indent=2).rsplit("[]", 1)
        head, tail = head + "[\n", "\n  ]" + tail + "\n"
    else:
        coeff_text = ";".join(f"{re!r},{im!r}" for re, im in pairs)
        head = f"# d={d}\n# entanglement={e_value!r}\n# coefficients={coeff_text}\nm,n,j,k,re,im\n"
        tail = "\n"
    opening, sep, closing, row_sep = _ROW_LAYOUT[fmt]
    cells = np.array([f"{sep}{re!r}{sep}{im!r}{closing}" for re, im in pairs], dtype=object)
    labels = np.array([str(x) for x in range(d)], dtype=object)
    # State (m, n) puts a_i on (rows[m, i], cols[(m + n) % d, i]).
    rows, cols = _support(d, np.arange(d), 0)
    columns = (labels + sep)[rows].tolist()
    tails = (labels[cols] + cells).tolist()

    yield head
    pieces = [""] * (3 * d)
    before = ""
    for m in range(d):
        pieces[1::3] = columns[m]
        for n in range(d):
            lead = f"{opening}{m}{sep}{n}{sep}"
            pieces[0::3] = [row_sep + lead] * d
            pieces[0] = before + lead
            pieces[2::3] = tails[(m + n) % d]
            yield "".join(pieces)
            before = row_sep
    yield tail


def curve_rows(points: np.ndarray, values: np.ndarray) -> str:
    """The CSV lines ``param,entanglement`` of one curve chunk, each ``%.15g``.

    The two columns are interleaved into one list and formatted with one
    ``%`` template of n rows, which gives the bytes of one
    ``f"{p:.15g},{e:.15g}\\n"`` per row at less than half the cost.
    """
    n = len(points)
    row = [None] * (2 * n)
    row[0::2], row[1::2] = points.tolist(), values.tolist()
    return ("%.15g,%.15g\n" * n) % tuple(row)


def cmd_curve(args, argv: list[str]) -> int:
    """Write the entanglement curve as CSV, streamed one grid chunk at a time.

    Each chunk of ``CURVE_CHUNK`` points makes one coefficient call, one
    row-wise entropy call and one block of CSV lines formatted by
    :func:`curve_rows` with one ``%`` template, written before the next
    chunk is evaluated, so memory does not grow with the grid beyond the
    grid itself.  The grid maximum (first point of greatest entanglement)
    is kept as the chunks go by.  An internal error raised mid-grid leaves
    the rows written so far beside this run's manifest (see :func:`save`
    and :func:`_overwrite`).
    """
    if args.interpolate:
        misuse = "--interpolate works with --preset or --theta0, not --family"
        seed, desc = read_source(args, ("theta0", "preset"), misuse)
        if not (0.0 <= args.start <= 1.0 and 0.0 <= args.stop <= 1.0):
            raise ArgumentProblem("interpolation range must lie within [0, 1]")
        desc = dict(desc, interpolate=True)

        def coefficients(points: np.ndarray) -> np.ndarray:
            return synthesize_coefficients(interpolate(seed, points))

    else:
        misuse = "curve needs --family, or --interpolate with a seed"
        seed, desc = read_source(args, ("family",), misuse)
        if not (0.0 <= args.start <= 360.0 and 0.0 <= args.stop <= 360.0):
            raise ArgumentProblem("parameter range must lie within [0, 360] degrees")

        def coefficients(points: np.ndarray) -> np.ndarray:
            return seed.coefficients(np.radians(points))

    grid = make_grid(args.start, args.stop, args.step)
    best_e, best_p = -1.0, 0.0

    def csv_chunks() -> Iterator[str]:
        nonlocal best_e, best_p
        yield "param_deg,entanglement\n"
        for lo in range(0, grid.size, CURVE_CHUNK):
            points = grid[lo : lo + CURVE_CHUNK]
            values = entanglement(coefficients(points))
            top = int(np.argmax(values))
            if values[top] > best_e:
                best_e, best_p = float(values[top]), float(points[top])
            yield curve_rows(points, values)

    output = args.output if args.output is not None else Path("curve.csv")
    config = dict(desc, start=args.start, stop=args.stop, step=args.step)
    save(output, argv, csv_chunks(), {"config": config})

    say(args, f"wrote {output}")
    say(args, f"grid maximum: entanglement={best_e:.15g} at param={best_p:.15g}")
    return 0


def cmd_verify(args, argv: list[str]) -> int:
    a, desc = resolve_source(args)
    # Gram first: a broken support map exits 4 before any entropy is computed.
    cert = SolutionCertificate.of(a, gram_check(a))
    payload = {
        "residual": cert.residual,
        "gram_max_offdiag": cert.gram.max_offdiag,
        "gram_max_diag_dev": cert.gram.max_diag_dev,
        "entanglement": cert.entanglement,
        "maximal": cert.maximal,
    }
    checks = [check._asdict() for check in cert.checks]
    report(args, argv, payload, {"config": {"source": desc, "d": a.size}, "checks": checks})
    return 0 if cert.gram.passed else 1


def cmd_search(args, argv: list[str]) -> int:
    check_dimension(args.d, "--d")
    cfg = SearchConfig(
        d=args.d,
        max_iters=args.max_iters,
        residual_tol=args.tol,
        restarts=args.restarts,
        rng_seed=args.seed,
    )
    result = alternating_projection_search(cfg)
    payload = {
        "d": cfg.d,
        "seed": cfg.rng_seed,
        "theta_rad": [float(t) for t in result.theta.theta],
        "residual": result.residual,
        "iterations": result.iterations,
        "converged": result.converged,
        "restart_index": result.restart_index,
    }
    config = {
        "d": cfg.d,
        "seed": cfg.rng_seed,
        "restarts": cfg.restarts,
        "max_iters": cfg.max_iters,
        "residual_tol": cfg.residual_tol,
    }
    report(args, argv, payload, {"config": config})
    return 0 if result.converged else 1


# --- parser ---------------------------------------------------------------

@lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser of every subcommand, built once per process.

    Building the whole tree costs about 1 ms, some 20 times a parse, so the
    first call builds it and later calls return the same parser.  Parsing
    does not change it: each ``parse_args`` fills a fresh namespace from
    the defaults, and every default is immutable.  The subcommand handlers
    are bound when the parser is built.
    """
    parser = argparse.ArgumentParser(
        prog="equibasis",
        description="Equi-entangled orthonormal bases for pairs of qudits.",
    )
    parser.add_argument("--version", action="version", version=versions_line())

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--output", type=Path, help="output file path")
    common.add_argument(
        "--format", choices=("json", "csv"), default=None, help="output format"
    )
    common.add_argument("--quiet", action="store_true", help="suppress status messages")

    family_help = "one of: " + FAMILY_NAMES
    source = argparse.ArgumentParser(add_help=False)
    source.add_argument("--d", type=int, help="dimension (checked against the source)")
    source.add_argument("--theta", help="comma-separated phases in radians (pi syntax ok)")
    source.add_argument("--family", help=family_help)
    source.add_argument("--param-deg", type=float, help="family parameter in degrees")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "construct",
        parents=[common, source],
        help="materialize all d^2 basis states from phases or a family",
    )
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser(
        "curve",
        parents=[common],
        help="CSV of entanglement vs parameter for a family or interpolation",
    )
    p.add_argument("--family", help=family_help)
    p.add_argument("--preset", help="flat-phase endpoint, e.g. d=4,v=0")
    p.add_argument("--theta0", help="explicit endpoint phases (radians, pi syntax ok)")
    p.add_argument(
        "--interpolate",
        action="store_true",
        help="sweep the scaling t in [0,1] instead of a family parameter",
    )
    p.add_argument("--from", dest="start", type=float, required=True)
    p.add_argument("--to", dest="stop", type=float, required=True)
    p.add_argument("--step", type=float, required=True)
    p.set_defaults(func=cmd_curve)

    p = sub.add_parser(
        "verify",
        parents=[common, source],
        help="print an orthonormality / maximal-entanglement certificate",
    )
    p.add_argument("--preset", help="flat-phase endpoint, e.g. d=5,v=0")
    p.add_argument("--coeffs", help="raw coefficients 're,im;re,im;...'")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser(
        "search",
        parents=[common],
        help="alternating-projection search for flat phases",
    )
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--seed", type=int, default=SearchConfig.rng_seed)
    p.add_argument("--restarts", type=int, default=SearchConfig.restarts)
    p.add_argument("--tol", type=float, default=SearchConfig.residual_tol)
    p.add_argument("--max-iters", type=int, default=SearchConfig.max_iters)
    p.set_defaults(func=cmd_search)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command line and return its exit code (README "Exit codes").

    argparse writes its help, version, usage and error text itself, with
    rules of its own: usage goes to stdout when stderr is closed, and from
    Python 3.11 a failed write is swallowed.  So that text is captured
    around ``parse_args`` and passed to :func:`write_err` and, only when
    argparse wrote to stdout, to :func:`write_out`.  Each stream then has
    its one failure rule, and a usage error never trips a closed stdout.
    """
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    out, err = io.StringIO(), io.StringIO()
    try:
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                args = build_parser().parse_args(argv)
        except SystemExit as exc:
            write_err(err.getvalue())
            if out.tell():
                write_out([out.getvalue()])
            return int(exc.code or 0)
        # Before any work: each numeric flag must be finite, then --format
        # must be one the subcommand writes (exit 2 for either, naming it).
        for dest, flag in FINITE_FLAGS.items():
            value = getattr(args, dest, None)
            if value is not None and not math.isfinite(value):
                raise ArgumentProblem(f"{flag} must be a finite number, got {value}")
        formats = OUTPUT_FORMATS[args.command]
        if args.format not in (None, *formats):
            raise ArgumentProblem(f"{args.command} output is {' or '.join(formats).upper()} only")
        return args.func(args, argv)
    except ValueError as exc:  # ArgumentProblem and the library's own rejections
        write_err(f"error: {exc}\n")
        return 2
    except OSError as exc:
        write_err(f"i/o error: {exc}\n")
        return 3
    except RuntimeError as exc:
        write_err(f"internal error: {exc}\n")
        return 4


def entrypoint() -> None:
    """The console script and ``python -m equibasis.cli``: exit with
    ``main``'s code.  An exception ``main`` lets through is a fault of the
    program, not a verdict: its traceback and one ``internal error:`` line
    go to :func:`write_err`, and it exits 4 as ``main``'s own internal errors
    do, so exit 1 only ever means a failed verification or search.  It is
    caught here, not in ``main``, so an in-process caller still sees it.
    """
    try:
        sys.exit(main())
    except Exception as exc:
        write_err(f"{traceback.format_exc()}internal error: {exc!r}\n")
        sys.exit(4)


if __name__ == "__main__":
    entrypoint()
