"""Outside-in span tracing of the program's layers.

The tracer replaces bound methods on the program's *instances* (engine,
kernel, propensity store, lattice, evaluator, potential, row cache, ranks)
with thin wrappers that record one span per call: name, start, end and the
span that was open when the call began.  Nothing in the program's source is
touched, and an untraced object is never slowed down.  Spans stay in memory
until the run ends; :func:`self_times` then charges each span its duration
minus the time covered by its children.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

import numpy as np

#: ``measure(args, result) -> value`` records a count taken from a call.
Measure = Callable[[tuple, object], float]


class Tracer:
    """In-memory span recorder shared by every wrapper of one run."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.names: List[str] = []
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.parents: List[int] = []
        self._stack: List[int] = []
        #: ``name -> [(span id, value), ...]`` from the ``measure`` hooks.
        self.samples: Dict[str, List[tuple]] = defaultdict(list)
        self._wrapped: set = set()

    def wrap(
        self, obj, attr: str, name: str, measure: Optional[Measure] = None
    ) -> None:
        """Record a span named ``name`` around every ``obj.attr(...)`` call.

        Wrapping the same attribute of the same object twice is a no-op, so
        objects shared between engines (one potential behind many of them)
        are traced once.
        """
        fn = getattr(obj, attr, None)
        if fn is None or (id(obj), attr) in self._wrapped:
            return
        self._wrapped.add((id(obj), attr))
        names, starts, ends, parents = (
            self.names, self.starts, self.ends, self.parents
        )
        stack = self._stack
        samples = self.samples[name] if measure is not None else None
        clock = time.perf_counter

        def traced(*args, **kwargs):
            sid = len(starts)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(sid)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                stack.pop()
            if samples is not None:
                samples.append((sid, measure(args, result)))
            return result

        setattr(obj, attr, traced)

    # ------------------------------------------------------------------
    def durations(self, name: str) -> np.ndarray:
        """Wall durations (seconds) of every span called ``name``."""
        idx = [i for i, n in enumerate(self.names) if n == name]
        return np.asarray(self.ends)[idx] - np.asarray(self.starts)[idx]

    def calls(self, name: str) -> int:
        return sum(1 for n in self.names if n == name)

    def write(self, path: str) -> None:
        """Dump every span as one JSON document (done once, at the end)."""
        with open(path, "w") as fh:
            json.dump(
                {
                    "run_id": self.run_id,
                    "names": self.names,
                    "starts": self.starts,
                    "ends": self.ends,
                    "parents": self.parents,
                },
                fh,
            )


def self_times(
    names: List[str],
    starts: List[float],
    ends: List[float],
    parents: List[int],
) -> Dict[str, float]:
    """Total self time per span name.

    A span's self time is its duration minus the durations of its direct
    children.  Spans come from one thread, so a parent's children never
    overlap each other and their sum is the time they cover.
    """
    dur = np.asarray(ends, dtype=np.float64) - np.asarray(starts, dtype=np.float64)
    par = np.asarray(parents, dtype=np.int64)
    child = np.zeros_like(dur)
    has_parent = par >= 0
    np.add.at(child, par[has_parent], dur[has_parent])
    out: Dict[str, float] = defaultdict(float)
    for name, own in zip(names, dur - child):
        out[name] += float(own)
    return dict(out)


def layer_self_times(tracer: Tracer) -> Dict[str, float]:
    """Self time per span name of a finished trace."""
    return self_times(tracer.names, tracer.starts, tracer.ends, tracer.parents)


def tail_percentile(n: int) -> float:
    """Highest of p99.9/p99/p90/p50 with at least ten samples beyond it."""
    for q in (99.9, 99.0, 90.0):
        if n * (1.0 - q / 100.0) >= 10:
            return q
    return 50.0
