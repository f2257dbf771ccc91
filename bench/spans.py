"""In-memory span recorder for the traced benchmark run.

The benchmark wraps the public functions of each equibasis layer at the
module attribute where their caller looks them up, so the program itself is
unchanged.  Each wrapped call records one span: name, start, end, parent
span and job id.  Spans are kept in flat typed arrays until the run ends;
a layer's self time is its span's duration minus the durations of its
child spans.
"""

from __future__ import annotations

from array import array
from collections import defaultdict
from time import perf_counter
from typing import Any, Callable

import numpy as np

# Counts a wrapped call adds to its job, computed from (args, kwargs, result)
# after the span has closed.
Counter = Callable[[tuple, dict, Any], dict[str, float]]


class Tracer:
    def __init__(self) -> None:
        self.span_names: list[str] = []
        self._name = array("H")
        self._parent = array("q")
        self._job = array("q")
        self._start = array("d")
        self._end = array("d")
        self._open: list[int] = []
        self.job_id = -1
        self.counts: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self._installed: list[tuple[Any, str, Any]] = []

    def wrap(self, owner: Any, attr: str, span: str, count: Counter | None = None) -> None:
        """Replace ``owner.attr`` by a recording wrapper until :meth:`uninstall`."""
        if span not in self.span_names:
            self.span_names.append(span)
        name_id = self.span_names.index(span)
        fn = getattr(owner, attr)
        names, parents, jobs = self._name, self._parent, self._job
        starts, ends, open_spans = self._start, self._end, self._open

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(name_id)
            parents.append(open_spans[-1] if open_spans else -1)
            jobs.append(self.job_id)
            ends.append(0.0)
            open_spans.append(idx)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                open_spans.pop()
            if count is not None:
                job_counts = self.counts[self.job_id]
                for key, value in count(args, kwargs, result).items():
                    job_counts[key] += value
            return result

        self._installed.append((owner, attr, fn))
        setattr(owner, attr, traced)

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._installed):
            setattr(owner, attr, fn)
        self._installed.clear()

    def __len__(self) -> int:
        return len(self._start)

    def per_job(self, n_jobs: int) -> tuple[np.ndarray, np.ndarray]:
        """Calls and self seconds per (job id, span name).

        Both arrays have shape (n_jobs, len(span_names)); spans recorded
        outside a job (job id -1) are ignored.
        """
        start = np.frombuffer(self._start, dtype=float)
        end = np.frombuffer(self._end, dtype=float)
        parent = np.frombuffer(self._parent, dtype=np.int64)
        job = np.frombuffer(self._job, dtype=np.int64)
        name = np.frombuffer(self._name, dtype=np.uint16).astype(np.int64)

        duration = end - start
        child = parent >= 0
        covered = np.zeros_like(duration)
        np.add.at(covered, parent[child], duration[child])
        self_time = duration - covered

        keep = job >= 0
        shape = (n_jobs, len(self.span_names))
        calls = np.zeros(shape)
        seconds = np.zeros(shape)
        np.add.at(calls, (job[keep], name[keep]), 1.0)
        np.add.at(seconds, (job[keep], name[keep]), self_time[keep])
        return calls, seconds
