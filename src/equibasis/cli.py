"""Command-line interface: construct bases, emit entanglement curves,
verify certificates, and search for maximally entangled endpoints.

Angles are accepted in degrees on the command line (matching the usual
plots) and converted to radians exactly once at this boundary; explicit
phase lists accept radians with a small `pi` syntax (``pi``, ``pi/2``,
``2pi/3``).  Structured results are JSON, curves are CSV, and every output
file gets a ``*.manifest.json`` sibling recording the command, config and
versions.  Data files are byte-identical across repeated runs; only the
manifest carries a timestamp.

Exit codes: 0 success, 1 failed verification or non-converged search,
2 bad arguments, 3 I/O failure, 4 internal error (an invariant of the
program itself failed, such as the basis layout checked by the Gram
oracle; please report it).
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import re
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .basis import gram_check
from .core import PhaseVector, entanglement, synthesize_coefficients
from .families import Family, interpolate, preset_phases
from .search import (
    CERT_ENTROPY_TOL,
    CERT_RESIDUAL_TOL,
    SearchConfig,
    alternating_projection_search,
)

# Grid points per stacked synthesis and entropy call in `curve`.  Bounds the
# working set at d = 256 to a few (256, 256) complex arrays (1 MB each).
CURVE_CHUNK = 256

# Numeric flags that must be finite, by argparse destination.
FINITE_FLAGS = {
    "param_deg": "--param-deg", "start": "--from", "stop": "--to", "step": "--step", "tol": "--tol"
}

_ANGLE_RE = re.compile(
    r"^([+-]?(?:\d+\.?\d*|\.\d+)?)\s*\*?\s*pi\s*(?:/\s*(\d+\.?\d*|\.\d+))?$"
)


class ArgumentProblem(Exception):
    """Invalid command-line input; reported on stderr, exit code 2."""


def parse_angle(token: str) -> float:
    """One angle in radians: a float, or 'pi', '-pi/2', '2pi/3', '0.5*pi'."""
    token = token.strip()
    m = _ANGLE_RE.match(token)
    if m:
        coef_text = m.group(1)
        coef = 1.0 if coef_text in ("", "+") else -1.0 if coef_text == "-" else float(coef_text)
        denom = float(m.group(2)) if m.group(2) else 1.0
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


def check_finite_flags(args) -> None:
    """Reject NaN or infinite values of the numeric flags, naming the flag."""
    for dest, flag in FINITE_FLAGS.items():
        value = getattr(args, dest, None)
        if value is not None and not math.isfinite(value):
            raise ArgumentProblem(f"{flag} must be a finite number, got {value}")


def parse_family(name: str) -> Family:
    try:
        return Family(name)
    except ValueError:
        valid = ", ".join(f.value for f in Family)
        raise ArgumentProblem(f"unknown family {name!r}; choose from: {valid}") from None


def make_grid(start: float, stop: float, step: float) -> list[float]:
    """Inclusive, strictly increasing grid start, start+step, ..., stop."""
    if step <= 0.0:
        raise ArgumentProblem(f"step must be positive, got {step}")
    if stop < start:
        raise ArgumentProblem(f"range end {stop} is below start {start}")
    n = int(math.floor((stop - start) / step + 1e-9))
    return [min(start + i * step, stop) for i in range(n + 1)]


def utc_timestamp() -> str:
    return datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


def versions_line() -> str:
    return (
        f"equibasis {__version__}; "
        f"python {sys.version.split()[0]}; numpy {np.__version__}"
    )


def write_manifest(output: Path, argv: list[str], config: dict) -> None:
    manifest = {
        "command": "equibasis " + " ".join(argv),
        "config": config,
        "versions": versions_line(),
        "timestamp": utc_timestamp(),
    }
    path = output.with_suffix(".manifest.json")
    path.write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")


def write_text(path: Path, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def say(args, message: str) -> None:
    if not args.quiet:
        print(message)


# --- coefficient sources -------------------------------------------------

def resolve_source(args) -> tuple[np.ndarray, dict]:
    """Turn the coefficient-source flags into (coefficients, description).

    Exactly one of --theta, --family, --preset, --coeffs must be given
    (only the flags the subcommand actually defines are considered).
    """
    sources = [
        name
        for name in ("theta", "family", "preset", "coeffs")
        if getattr(args, name, None) is not None
    ]
    if len(sources) != 1:
        raise ArgumentProblem(
            "exactly one coefficient source required (--theta | --family | --preset | --coeffs)"
        )
    kind = sources[0]

    if kind == "theta":
        theta = PhaseVector(parse_angle_list(args.theta))
        a = synthesize_coefficients(theta)
        desc = {"theta_rad": [float(t) for t in theta.theta]}
    elif kind == "family":
        family = parse_family(args.family)
        if args.param_deg is None:
            raise ArgumentProblem("--family requires --param-deg")
        a = family.coefficients(math.radians(args.param_deg))
        desc = {"family": family.value, "param_deg": args.param_deg}
    elif kind == "preset":
        d, variant = parse_preset_key(args.preset)
        try:
            entry = preset_phases(d, variant)
        except ValueError as exc:
            raise ArgumentProblem(str(exc)) from None
        a = synthesize_coefficients(entry.theta0)
        desc = {"preset": {"d": d, "variant": variant}}
    else:
        a = parse_coefficients(args.coeffs)
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
        desc = {"coeffs": args.coeffs}

    if getattr(args, "d", None) is not None and args.d != a.size:
        raise ArgumentProblem(f"--d {args.d} conflicts with source dimension {a.size}")
    return a, desc


# --- subcommands ----------------------------------------------------------

def cmd_construct(args, argv: list[str]) -> int:
    a, desc = resolve_source(args)
    d = a.size
    e_value = entanglement(a)

    rows = []
    for m in range(d):
        for n in range(d):
            for i in range(d):
                rows.append(
                    [m, n, (i + m) % d, (i + m + n) % d, float(a[i].real), float(a[i].imag)]
                )

    if args.format in (None, "json"):
        payload = {
            "d": d,
            "source": desc,
            "entanglement": e_value,
            "coefficients": [[float(z.real), float(z.imag)] for z in a],
            "states": rows,
        }
        text = json.dumps(payload, indent=2) + "\n"
    else:
        coeff_text = ";".join(f"{float(z.real)!r},{float(z.imag)!r}" for z in a)
        lines = [
            f"# d={d}",
            f"# entanglement={e_value!r}",
            f"# coefficients={coeff_text}",
            "m,n,j,k,re,im",
        ]
        lines += [f"{m},{n},{j},{k},{re!r},{im!r}" for m, n, j, k, re, im in rows]
        text = "\n".join(lines) + "\n"

    if args.output is None:
        print(text, end="")
    else:
        write_text(args.output, text)
        write_manifest(args.output, argv, {"source": desc, "d": d, "format": args.format})
        say(args, f"wrote {args.output}")
    return 0


def cmd_curve(args, argv: list[str]) -> int:
    if args.format not in (None, "csv"):
        raise ArgumentProblem("curve output is CSV only")

    if args.interpolate:
        if args.family is not None:
            raise ArgumentProblem("--interpolate works with --preset or --theta0, not --family")
        if args.preset is not None:
            d, variant = parse_preset_key(args.preset)
            theta0 = preset_phases(d, variant).theta0
            desc = {"preset": {"d": d, "variant": variant}, "interpolate": True}
        elif args.theta0 is not None:
            theta0 = PhaseVector(parse_angle_list(args.theta0))
            desc = {"theta0_rad": [float(t) for t in theta0.theta], "interpolate": True}
        else:
            raise ArgumentProblem("--interpolate requires --preset or --theta0")
        if not (0.0 <= args.start <= 1.0 and 0.0 <= args.stop <= 1.0):
            raise ArgumentProblem("interpolation range must lie within [0, 1]")

        def coefficients(points: list[float]) -> np.ndarray:
            return synthesize_coefficients(interpolate(theta0, np.array(points)))

    else:
        if args.family is None:
            raise ArgumentProblem("curve needs --family, or --interpolate with a seed")
        family = parse_family(args.family)
        if not (0.0 <= args.start <= 360.0 and 0.0 <= args.stop <= 360.0):
            raise ArgumentProblem("parameter range must lie within [0, 360] degrees")
        desc = {"family": family.value}

        def coefficients(points: list[float]) -> np.ndarray:
            return np.array([family.coefficients(math.radians(p)) for p in points])

    grid = make_grid(args.start, args.stop, args.step)
    values = []
    for lo in range(0, len(grid), CURVE_CHUNK):
        values += entanglement(coefficients(grid[lo : lo + CURVE_CHUNK])).tolist()

    lines = ["param_deg,entanglement"]
    lines += [f"{p:.15g},{e:.15g}" for p, e in zip(grid, values)]
    text = "\n".join(lines) + "\n"

    output = args.output if args.output is not None else Path("curve.csv")
    write_text(output, text)
    config = dict(desc, start=args.start, stop=args.stop, step=args.step)
    write_manifest(output, argv, config)

    top = int(np.argmax(values))
    say(args, f"wrote {output}")
    say(args, f"grid maximum: entanglement={values[top]:.15g} at param={grid[top]:.15g}")
    return 0


def cmd_verify(args, argv: list[str]) -> int:
    a, desc = resolve_source(args)
    d = a.size
    report = gram_check(a)
    e_value = entanglement(a)
    residual = float(np.max(np.abs(np.abs(a) - 1.0 / math.sqrt(d))))
    maximal = (
        residual < CERT_RESIDUAL_TOL
        and report.passed
        and abs(e_value - 1.0) < CERT_ENTROPY_TOL
    )
    certificate = {
        "residual": residual,
        "gram_max_offdiag": report.max_offdiag,
        "gram_max_diag_dev": report.max_diag_dev,
        "entanglement": e_value,
        "maximal": maximal,
    }
    text = json.dumps(certificate, indent=2)
    print(text)
    if args.output is not None:
        write_text(args.output, text + "\n")
        write_manifest(args.output, argv, {"source": desc, "d": d})
    return 0 if report.passed else 1


def cmd_search(args, argv: list[str]) -> int:
    try:
        cfg = SearchConfig(
            d=args.d,
            max_iters=args.max_iters,
            residual_tol=args.tol,
            restarts=args.restarts,
            rng_seed=args.seed,
        )
    except ValueError as exc:
        raise ArgumentProblem(str(exc)) from None
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
    text = json.dumps(payload, indent=2)
    print(text)
    if args.output is not None:
        write_text(args.output, text + "\n")
        write_manifest(
            args.output,
            argv,
            {
                "d": cfg.d,
                "seed": cfg.rng_seed,
                "restarts": cfg.restarts,
                "max_iters": cfg.max_iters,
                "residual_tol": cfg.residual_tol,
            },
        )
    return 0 if result.converged else 1


# --- parser ---------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
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

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "construct",
        parents=[common],
        help="materialize all d^2 basis states from phases or a family",
    )
    p.add_argument("--d", type=int, help="dimension (checked against the source)")
    p.add_argument("--theta", help="comma-separated phases in radians (pi syntax ok)")
    p.add_argument("--family", help="one of: " + ", ".join(f.value for f in Family))
    p.add_argument("--param-deg", type=float, help="family parameter in degrees")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser(
        "curve",
        parents=[common],
        help="CSV of entanglement vs parameter for a family or interpolation",
    )
    p.add_argument("--family", help="one of: " + ", ".join(f.value for f in Family))
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
        parents=[common],
        help="print an orthonormality / maximal-entanglement certificate",
    )
    p.add_argument("--d", type=int, help="dimension (checked against the source)")
    p.add_argument("--theta", help="comma-separated phases in radians (pi syntax ok)")
    p.add_argument("--family", help="one of: " + ", ".join(f.value for f in Family))
    p.add_argument("--param-deg", type=float, help="family parameter in degrees")
    p.add_argument("--preset", help="flat-phase endpoint, e.g. d=5,v=0")
    p.add_argument("--coeffs", help="raw coefficients 're,im;re,im;...'")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser(
        "search",
        parents=[common],
        help="alternating-projection search for flat phases",
    )
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--restarts", type=int, default=32)
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--max-iters", type=int, default=10_000)
    p.set_defaults(func=cmd_search)

    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        check_finite_flags(args)
        return args.func(args, argv)
    except ArgumentProblem as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    except RuntimeError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 4


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
