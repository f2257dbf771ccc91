"""Regenerate ``search_pool.json``: the cost of each candidate search job.

The short ``equibasis search --d D --seed S`` jobs of the ``emit`` workload
are drawn from this pool.  Search cost is heavy-tailed in S (one restart of
a few hundred sweeps, or several restarts of 10 000 sweeps each), so
drawing S at random would make the cost of a job list swing from one
workload seed to the next.  The pool records, for every candidate (D, S),
how many restarts and sweeps the default search configuration spends; per
D the workload then takes a seed whose sweeps lie within 3 % of a fixed
target (see ``workloads._pick_search_seed``).

The counts follow from the search's result alone: restarts run in index
order, every restart before the converged one runs ``max_iters`` sweeps,
so ``sweeps = restart_index * max_iters + iterations``.  They depend only
on the search's semantics, which the CLI's byte-identical output contract
fixes.

Usage, from the repository root (about five minutes on one core):

    python3 bench/make_search_pool.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from equibasis.search import SearchConfig, alternating_projection_search  # noqa: E402

DIMENSIONS = tuple(range(6, 33, 2))
SEEDS_PER_D = 96


def job_cost(d: int, seed: int) -> dict:
    cfg = SearchConfig(d=d, rng_seed=seed)
    result = alternating_projection_search(cfg)
    if not result.converged:
        return {"seed": seed, "restarts": cfg.restarts, "sweeps": cfg.restarts * cfg.max_iters}
    return {
        "seed": seed,
        "restarts": result.restart_index + 1,
        "sweeps": result.restart_index * cfg.max_iters + result.iterations,
    }


def main() -> None:
    pool = {str(d): [job_cost(d, s) for s in range(SEEDS_PER_D)] for d in DIMENSIONS}
    out = HERE / "search_pool.json"
    out.write_text(json.dumps(pool, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
