"""Host-speed probe that puts timings on a reference-machine scale.

On a shared host, other tenants slow a run down in phases that last from
seconds to minutes, so identical work can take 1.5x as long from one
minute to the next.  The probe is a fixed mix of interpreter work and
small-array NumPy calls, the same kinds of work a KMC step does; it uses no
code of the program, so a change to the program never changes it.  Timing
the probe next to every episode measures how fast the host is running at
that moment, and dividing each time by that speed factor turns wall
seconds into *reference seconds*: the seconds the work would have taken on
a host where the probe takes :data:`REFERENCE_S`.  How strongly a
workload follows the probe depends on its mix of interpreter and BLAS work,
so each workload carries its own exponent
(:attr:`workloads.WorkloadSpec.host_sensitivity`).
"""

from __future__ import annotations

import time

import numpy as np

#: Probe time on the reference host, by definition of the reference scale
#: (close to its median on a 2-core Xeon development host at 2.0 GHz).
REFERENCE_S = 0.025

_RNG = np.random.default_rng(20240611)
_KEYS = _RNG.integers(0, 5000, 2000)
_IDX = _RNG.integers(0, 2000, 64)


def _interpreter_work() -> int:
    table = {}
    total = 0
    for i in range(48000):
        table[i & 1023] = i
        total += table.get((i * 7) & 1023, 0)
    return total


def _array_work() -> None:
    for _ in range(700):
        picked = _KEYS[_IDX]
        np.unique(picked)
        np.cumsum(picked)
        np.where(picked > 2500, picked, 0)
        np.sort(picked)


def probe() -> float:
    """Seconds one probe takes right now."""
    t0 = time.perf_counter()
    _interpreter_work()
    _array_work()
    return time.perf_counter() - t0


def slowdown(probe_seconds: float, sensitivity: float) -> float:
    """Factor by which the host currently slows a workload down.

    ``sensitivity`` is the workload's exponent: the slope of its log wall
    time against the log probe time.  Interpreter-bound work slows down
    almost as much as the probe; work that sits in BLAS calls much less.
    """
    return (probe_seconds / REFERENCE_S) ** sensitivity
