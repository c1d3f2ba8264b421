"""Correctness checks behind ``failed`` / ``attempted``.

Every check either passes or counts as failed: a check that raises is a
failure with its traceback on stderr, never a silent skip.
"""

from __future__ import annotations

import sys
import time
import traceback
from typing import Callable, List, Sequence, Tuple

import numpy as np

from repro.baseline import OpenKMCEngine
from repro.campaign import occupancy_digest
from repro.core.tet import TripleEncoding
from repro.io.checkpoint import load_parallel_checkpoint

from workloads import WorkloadSpec, build_lattice, build_potential, make_inputs

Event = Tuple[int, int, float]


class Checks:
    """Tally of attempted and failed checks; failures are named on stderr."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def record(self, name: str, ok: bool) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"check failed: {name}", file=sys.stderr)
        return ok

    def run(self, name: str, check: Callable[[], object]):
        """Run a check that records its own results and return its value;
        an exception counts as a failure and returns ``None``."""
        try:
            return check()
        except Exception:  # a crashed check is a failed check
            traceback.print_exc(file=sys.stderr)
            self.record(f"{name} raised", False)
            return None


def compare_events(
    checks: Checks, observed: Sequence[Event], reference: Sequence[Event]
) -> None:
    """One check per reference event: same hop, bit-identical clock."""
    for i, ref in enumerate(reference):
        got = observed[i] if i < len(observed) else None
        checks.record(f"event {i}: {got} != reference {ref}", got == ref)


def reference_events(spec: WorkloadSpec, seed: int, n: int) -> List[Event]:
    """Replay the first ``n`` events on the cache-free baseline engine."""
    inputs = make_inputs(spec.name, seed)
    tet = TripleEncoding(rcut=spec.rcut)
    engine = OpenKMCEngine(
        build_lattice(spec, inputs.occupancies[0]),
        build_potential(inputs, tet),
        tet,
        rng=np.random.default_rng(inputs.rng_seeds[0]),
    )
    out: List[Event] = []
    engine.run(
        n_steps=n,
        callback=lambda e: out.append((e.from_site, e.to_site, e.time)),
    )
    return out


def check_conserved(checks: Checks, before: np.ndarray, after: np.ndarray) -> None:
    checks.record(
        f"species counts {before.tolist()} -> {after.tolist()}",
        bool(np.array_equal(before, after)),
    )


def check_campaign_replica(checks: Checks, episode, index: int) -> None:
    """Re-run one replica solo; its digest and clock must match the campaign."""
    spec = episode.specs[index]
    result = episode.results[index]
    solo = episode.factory(spec)
    solo.run(n_steps=spec.n_steps, on_no_moves="stop")
    checks.record(
        f"replica {spec.name} digest differs from its solo run",
        occupancy_digest(solo.lattice) == result.digest,
    )
    checks.record(
        f"replica {spec.name} clock {result.time!r} != solo {solo.time!r}",
        solo.time == result.time,
    )


def check_parallel(checks: Checks, episode) -> float:
    """Resume the last checkpoint, replay to the end, compare; also check
    ghost consistency and anomalies.  Returns the load time in seconds."""
    sim = episode.sim
    checks.record("ghost cells inconsistent", sim.check_ghost_consistency())
    checks.record(
        f"{sim.total_anomalies} stale-data anomalies", sim.total_anomalies == 0
    )
    checks.record("no checkpoint was written", episode.checkpoint_cycle is not None)
    if episode.checkpoint_cycle is None:
        return 0.0
    t0 = time.perf_counter()
    resumed = load_parallel_checkpoint(
        episode.checkpoint_path, episode.potential, tet=episode.tet
    )
    load_s = time.perf_counter() - t0
    try:
        resumed.run(episode.spec.work - episode.checkpoint_cycle)
        final = occupancy_digest(sim.gather_global())
        checks.record(
            "checkpoint replay digest differs",
            occupancy_digest(resumed.gather_global()) == final,
        )
        checks.record(
            f"checkpoint replay clock {resumed.time!r} != {sim.time!r}",
            resumed.time == sim.time,
        )
        checks.record(
            "checkpoint replay event count differs",
            resumed.total_events == sim.total_events,
        )
    finally:
        resumed.close()
    return load_s
