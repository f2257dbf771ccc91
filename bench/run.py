"""equibasis benchmark: end-to-end and per-layer metrics for two workloads.

One workload in this process:

    python3 bench/run.py --workload certify --seed 1 --seconds 45 --trace 0

runs the workload's job list and prints, as its last line,
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``.

Every workload, each in its own fresh process, with the tracing overhead,
output-digest and count repeatability checks, rewriting BENCHMARK.json:

    python3 bench/run.py --all [--seed 1] [--seconds 45]

See bench/README.md for what each metric means and why each workload exists.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import types
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# Jobs repeat in passes while another pass fits in --seconds, but at least
# this many times; a job's latency is its median over passes.
MIN_PASSES = 2
# Fresh interpreters timed for setup_s; the reported value is their median.
SETUP_SAMPLES = 11
# A tail percentile needs this many per-job latencies above it.
TAIL_SAMPLES = 10
# BLAS/OpenMP threads per workload process.  With 2 threads on a 2-CPU
# machine the small synthesis matvecs ran slower than with 1, and a busy
# second core made a d = 256 interpolation curve take 12.8 s instead of
# 0.1 s.  One thread costs the d = 48 Gram oracle 1.6 s instead of 1.0 s.
BLAS_THREADS = 1

SPEC = {
    "command": ["python3", "bench/run.py"],
    "paths": ["bench"],
    "run_seconds": 45,
    "workloads": [
        {"name": "certify", "why": "CLI verify over d 8..48 plus the all-states entropy check: "
         "time is in the brute-force Gram and entropy oracles, no search"},
        {"name": "emit", "why": "curves at d 2..5 and 64..256, construct JSON/CSV at d 8..32 and short searches: "
         "many synthesis and entropy calls plus serialisation, no Gram"},
    ],
    "end_to_end": [
        {"name": "jobs_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
        {"name": "job_p50_ms", "unit": "ms", "better": "lower", "bound": 0.25},
        {"name": "job_p_hi_ms", "unit": "ms", "better": "lower", "bound": 0.25},
        {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.25},
        {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    ],
    "per_layer": [
        {"name": name, "unit": unit, "better": better}
        for name, unit, better in (
            ("search.restarts", "count", "lower"),
            ("search.sweeps", "count", "lower"),
            ("search.sweep_us", "us", "lower"),
            ("search.converged_ratio", "ratio", "higher"),
            ("search.iterate.self_ms", "ms", "lower"),
            ("basis.gram.calls", "count", "lower"),
            ("basis.gram.self_ms", "ms", "lower"),
            ("basis.gram.bytes_computed", "B", "lower"),
            ("basis.state_entropy.calls", "count", "lower"),
            ("basis.state_entropy.self_ms", "ms", "lower"),
            ("core.synthesize.calls", "count", "lower"),
            ("core.synthesize.self_ms", "ms", "lower"),
            ("core.entanglement.calls", "count", "lower"),
            ("core.entanglement.self_ms", "ms", "lower"),
            ("families.coefficients.calls", "count", "lower"),
            ("families.coefficients.self_ms", "ms", "lower"),
            ("families.interpolate.calls", "count", "lower"),
            ("families.interpolate.self_ms", "ms", "lower"),
            ("families.preset.calls", "count", "lower"),
            ("families.preset.self_ms", "ms", "lower"),
            ("cli.main.calls", "count", "lower"),
            ("cli.self_ms", "ms", "lower"),
            ("cli.write.bytes", "B", "lower"),
            ("cli.write.ms", "ms", "lower"),
            ("cli.manifest.ms", "ms", "lower"),
        )
    ],
}

# failed_ratio is printed with the end-to-end metrics but is not in SPEC:
# it is 0 on correct code, and a bound relative to a median of 0 is
# undefined.  The result line's "failed" count carries the same information.
E2E_UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"]} | {"failed_ratio": "ratio"}
LAYER_UNITS = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
COUNTERS = ("sweeps", "converged", "gram_bytes", "write_bytes")


def pin_threads() -> None:
    """Fix the BLAS/OpenMP thread count (at most nproc).

    Must run before numpy is imported; child processes inherit it.
    """
    threads = min(BLAS_THREADS, len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)


def measure_setup() -> float:
    """Median wall time of a fresh interpreter running ``import equibasis.cli``.

    Measured in separate processes, not in the workload process, so it is
    the floor every CLI call pays.  One unmeasured run first writes the
    bytecode cache, as any installation would have.
    """
    argv = [sys.executable, "-c", "import equibasis.cli"]
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    samples = []
    for i in range(SETUP_SAMPLES + 1):
        t0 = time.perf_counter()
        # No timeout: with one, wait() polls in steps of up to 50 ms, which
        # quantises the measured time.
        subprocess.run(argv, env=env, check=True, stdout=subprocess.DEVNULL)
        if i:
            samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def machine_info() -> dict:
    import numpy as np

    info = {
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
    }
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            info["cpu"] = next(
                line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")
            )
    except (OSError, StopIteration):
        info["cpu"] = "unknown"
    for level in (2, 3):  # cache index0/1 are L1 data/instruction
        path = Path(f"/sys/devices/system/cpu/cpu0/cache/index{level}/size")
        try:
            info[f"l{level}"] = path.read_text(encoding="utf-8").strip()
        except OSError:
            info[f"l{level}"] = "unknown"
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        info["blas"] = "unknown"
    return info


def install_tracing(tracer, lib) -> None:
    """Wrap each layer's public functions where their callers look them up."""
    from equibasis import cli, families, search

    def gram_bytes(args, kwargs, result):
        d = len(args[0])
        return {"gram_bytes": 2 * d**4 * 16}  # d^2 x d^2 states and Gram, complex128

    def sweeps(args, kwargs, result):
        tol = args[2] if len(args) > 2 else kwargs["residual_tol"]
        return {"sweeps": result[2], "converged": float(result[1] < tol)}

    def written(args, kwargs, result):
        return {"write_bytes": os.path.getsize(args[0])}

    tracer.wrap(cli, "main", "cli.main")
    tracer.wrap(cli, "write_text", "cli.write", written)
    tracer.wrap(cli, "write_manifest", "cli.manifest")
    tracer.wrap(cli, "alternating_projection_search", "search.search")
    tracer.wrap(search, "iterate_projections", "search.iterate", sweeps)
    tracer.wrap(cli, "gram_check", "basis.gram", gram_bytes)
    tracer.wrap(lib, "build_state", "basis.build_state")
    tracer.wrap(lib, "state_entanglement", "basis.state_entanglement")
    for module in (cli, families, search):
        tracer.wrap(module, "synthesize_coefficients", "core.synthesize")
    for module in (cli, search):
        tracer.wrap(module, "entanglement", "core.entanglement")
    tracer.wrap(families.Family, "coefficients", "families.coefficients")
    tracer.wrap(cli, "interpolate", "families.interpolate")
    tracer.wrap(cli, "preset_phases", "families.preset")


def layer_metrics(calls, seconds, counts, names) -> dict[str, list[float]]:
    """Per-layer metrics per pass, from per-pass span and counter totals."""
    import numpy as np

    col = {name: i for i, name in enumerate(names)}

    def c(span):
        return calls[:, col[span]]

    def ms(*spans):
        return sum(seconds[:, col[s]] for s in spans) * 1e3

    def ratio(num, den):
        return np.divide(num, den, out=np.zeros_like(num, dtype=float), where=den > 0)

    k = {key: np.array([p[key] for p in counts]) for key in COUNTERS}
    metrics = {
        "search.restarts": c("search.iterate"),
        "search.sweeps": k["sweeps"],
        "search.sweep_us": ratio(ms("search.iterate") * 1e3, k["sweeps"]),
        "search.converged_ratio": ratio(k["converged"], c("search.iterate")),
        "search.iterate.self_ms": ms("search.iterate"),
        "basis.gram.calls": c("basis.gram"),
        "basis.gram.self_ms": ms("basis.gram"),
        "basis.gram.bytes_computed": k["gram_bytes"],
        "basis.state_entropy.calls": c("basis.state_entanglement"),
        "basis.state_entropy.self_ms": ms("basis.build_state", "basis.state_entanglement"),
        "core.synthesize.calls": c("core.synthesize"),
        "core.synthesize.self_ms": ms("core.synthesize"),
        "core.entanglement.calls": c("core.entanglement"),
        "core.entanglement.self_ms": ms("core.entanglement"),
        "families.coefficients.calls": c("families.coefficients"),
        "families.coefficients.self_ms": ms("families.coefficients"),
        "families.interpolate.calls": c("families.interpolate"),
        "families.interpolate.self_ms": ms("families.interpolate"),
        "families.preset.calls": c("families.preset"),
        "families.preset.self_ms": ms("families.preset"),
        "cli.main.calls": c("cli.main"),
        "cli.self_ms": ms("cli.main"),
        "cli.write.bytes": k["write_bytes"],
        "cli.write.ms": ms("cli.write"),
        "cli.manifest.ms": ms("cli.manifest"),
    }
    return {name: [float(v) for v in values] for name, values in metrics.items()}


def run_passes(jobs, seconds, lib, tracer):
    """Run the job list in passes, one job at a time, checking each output.

    Returns per-pass rows of job latencies in seconds and of output
    digests, and the failures as {(pass, job): reason}.
    """
    from equibasis import cli
    from workloads import JobFailed

    n = len(jobs)
    latency, digests, failures = [], [], {}
    start = time.perf_counter()
    while len(latency) < MIN_PASSES or (
        (elapsed := time.perf_counter() - start) + elapsed / len(latency) <= seconds
    ):
        p = len(latency)
        row, row_digests = [], []
        for i, job in enumerate(jobs):
            sink = io.StringIO()
            if tracer is not None:
                tracer.job_id = p * n + i
            t0 = time.perf_counter()
            try:
                with redirect_stdout(sink), redirect_stderr(sink):
                    code = cli.main(job.argv)
                    extra = job.library(lib) if job.library else None
            except Exception as exc:  # a crash in the program is a failed job
                code, extra = None, exc
            row.append(time.perf_counter() - t0)
            if tracer is not None:
                tracer.job_id = -1

            # Outside the timed region.
            digest = hashlib.sha256()
            try:
                if code is None:
                    raise JobFailed(f"raised {extra!r}")
                job.check(code, extra)
                digest.update(job.output.read_bytes())
                if p and digest.hexdigest() != digests[0][i]:
                    raise JobFailed("output differs from the first pass")
            except (JobFailed, OSError, ValueError, KeyError, IndexError) as exc:
                failures[p, i] = f"job {i} ({job.argv[0]}): {exc}"
            row_digests.append(digest.hexdigest())
        latency.append(row)
        digests.append(row_digests)
    return latency, digests, failures


def traced_metrics(tracer, jobs, passes, failures) -> tuple[dict[str, float], dict[str, float]]:
    """Per-layer metrics (median over passes) and per-pass counts.

    Counts must repeat exactly from pass to pass: a job whose span counts or
    counters drift is recorded in ``failures``.
    """
    import numpy as np

    n = len(jobs)
    calls, secs = tracer.per_job(passes * n)
    calls = calls.reshape(passes, n, -1)
    secs = secs.reshape(passes, n, -1)
    job_counts = [[dict(tracer.counts.get(p * n + i, {})) for i in range(n)] for p in range(passes)]
    for p in range(1, passes):
        for i in range(n):
            if not np.array_equal(calls[p, i], calls[0, i]) or job_counts[p][i] != job_counts[0][i]:
                failures.setdefault((p, i), f"job {i} ({jobs[i].argv[0]}): counts drift")
    pass_counts = [{key: sum(jc.get(key, 0.0) for jc in row) for key in COUNTERS} for row in job_counts]
    per_pass = layer_metrics(calls.sum(axis=1), secs.sum(axis=1), pass_counts, tracer.span_names)
    metrics = {key: statistics.median(values) for key, values in per_pass.items()}
    counts = {key: values[0] for key, values in per_pass.items() if LAYER_UNITS[key] in ("count", "B")}
    return metrics, counts


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    pin_threads()
    if not (SRC / "equibasis" / "cli.py").is_file():
        print(f"error: no equibasis sources under {SRC}", file=sys.stderr)
        return 2
    setup_s = measure_setup()

    sys.path.insert(0, str(SRC))
    import numpy as np

    import equibasis
    from equibasis import basis

    if Path(equibasis.__file__).resolve().parent != SRC / "equibasis":
        print(f"error: imported equibasis from {equibasis.__file__}", file=sys.stderr)
        return 2
    from spans import Tracer
    from workloads import WORKLOADS

    lib = types.SimpleNamespace(build_state=basis.build_state, state_entanglement=basis.state_entanglement)
    tracer = Tracer() if trace else None
    workdir = ROOT / f".bench_work-{os.getpid()}"
    workdir.mkdir()
    try:
        jobs = WORKLOADS[name](seed, workdir)
        n = len(jobs)
        if n <= TAIL_SAMPLES:
            raise SystemExit(f"workload {name} has {n} jobs; job_p_hi_ms needs more than {TAIL_SAMPLES}")
        if tracer is not None:
            install_tracing(tracer, lib)
        try:
            latency, digests, failures = run_passes(jobs, seconds, lib, tracer)
        finally:
            if tracer is not None:
                tracer.uninstall()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    passes = len(latency)
    attempted = passes * n
    if tracer is not None:
        layers, counts = traced_metrics(tracer, jobs, passes, failures)

    lat = np.array(latency)
    per_job = np.sort(np.median(lat, axis=0))
    hi_rank = n - TAIL_SAMPLES  # 1-based rank with TAIL_SAMPLES per-job latencies above it
    e2e = {
        "jobs_per_s": n / float(np.median(lat.sum(axis=1))),
        "job_p50_ms": float(np.median(per_job)) * 1e3,
        "job_p_hi_ms": float(per_job[hi_rank - 1]) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": setup_s,
        "failed_ratio": len(failures) / attempted,
    }
    detail = {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "passes": passes,
        "jobs_per_pass": n,
        "pass_s": [round(float(t), 4) for t in lat.sum(axis=1)],
        "job_p_hi_percentile": round(100.0 * hi_rank / n, 1),
        "e2e": e2e,
        "digest": hashlib.sha256("".join(digests[0]).encode()).hexdigest(),
        "machine": machine_info(),
    }
    if failures:
        detail["first_failure"] = failures[min(failures)]

    print(f"workload {name}  seed {seed}  passes {passes} x {n} jobs  trace {int(trace)}")
    for key, value in e2e.items():
        print(f"  {key:<32} {value:14.6g} {E2E_UNITS[key]}")
    print(f"  job_p_hi_ms is p{detail['job_p_hi_percentile']} of {n} per-job medians "
          f"({TAIL_SAMPLES} above it), each the median of {passes} passes")
    if tracer is not None:
        detail["spans"] = len(tracer)
        detail["counts"] = counts
        for key, value in layers.items():
            print(f"  {key:<32} {value:14.6g} {LAYER_UNITS[key]}")
        reported = {key: {"value": value, "unit": LAYER_UNITS[key]} for key, value in layers.items()}
    else:
        reported = {m["name"]: {"value": e2e[m["name"]], "unit": m["unit"]} for m in SPEC["end_to_end"]}

    print("detail " + json.dumps(detail, sort_keys=True))
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": len(failures),
                      "metrics": reported}))
    return 0


def run_all(seed: int, seconds: float) -> int:
    """Each workload untraced once and traced twice, each in a fresh process."""
    ok = True
    for workload in (w["name"] for w in SPEC["workloads"]):
        runs = []
        for trace in (0, 1, 1):
            argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                    "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(argv, capture_output=True, text=True, timeout=600, check=False)
            lines = proc.stdout.splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload}: run failed (exit {proc.returncode})\n{proc.stderr}", file=sys.stderr)
                return 1
            detail = json.loads(next(l for l in lines if l.startswith("detail "))[7:])
            runs.append((detail, json.loads(lines[-1])))
        (plain, _), (traced, traced_result), (again, _) = runs

        print(f"\n== {workload}  seed {seed}  {plain['jobs_per_pass']} jobs/pass, "
              f"{plain['passes']} passes untraced, {traced['passes']} traced")
        print("  end to end (untraced run):")
        for key, value in plain["e2e"].items():
            print(f"    {key:<32} {value:14.6g} {E2E_UNITS[key]}")
        print(f"    job_p_hi_ms is p{plain['job_p_hi_percentile']} of {plain['jobs_per_pass']} "
              f"per-job medians ({TAIL_SAMPLES} above it)")
        print("  per layer (traced run):")
        for key, entry in traced_result["metrics"].items():
            print(f"    {key:<32} {entry['value']:14.6g} {entry['unit']}")
        overhead = plain["e2e"]["jobs_per_s"] / traced["e2e"]["jobs_per_s"] - 1.0
        floor = traced["e2e"]["jobs_per_s"] / again["e2e"]["jobs_per_s"] - 1.0
        print(f"  tracing overhead: {100.0 * overhead:+.1f} % jobs_per_s, untraced over traced "
              f"({traced['spans']} spans recorded); the two traced runs differ by "
              f"{100.0 * floor:+.1f} %, the run-to-run noise it should be read against")

        same_digest = plain["digest"] == traced["digest"] == again["digest"]
        same_counts = traced["counts"] == again["counts"]
        all_correct = all(result["correct"] for _, result in runs)
        print(f"  output digest {plain['digest'][:16]}: "
              f"{'identical' if same_digest else 'DIFFERS'} across untraced, traced and repeat runs")
        print(f"  counts {'repeat exactly' if same_counts else 'DIFFER'} between the two traced runs")
        print(f"  all jobs correct: {all_correct}")
        for detail in (plain, traced, again):
            if "first_failure" in detail:
                print(f"  first failure: {detail['first_failure']}")
        ok = ok and same_digest and same_counts and all_correct

    print("\nmachine: " + json.dumps(runs[0][0]["machine"], sort_keys=True))
    (ROOT / "BENCHMARK.json").write_text(json.dumps(SPEC, indent=2) + "\n", encoding="utf-8")
    print("wrote BENCHMARK.json")
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[w["name"] for w in SPEC["workloads"]])
    parser.add_argument("--all", action="store_true", help="run every workload, report, write BENCHMARK.json")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.all == (args.workload is not None):
        parser.error("give exactly one of --workload and --all")
    if args.all:
        return run_all(args.seed, args.seconds)
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
