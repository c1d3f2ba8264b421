"""One workload run: the untraced end-to-end run or the traced layer run."""

from __future__ import annotations

import gc
import json
import os
import resource
import statistics
import time
from typing import Dict, Tuple

import calibrate
from checks import (
    Checks,
    check_campaign_replica,
    check_conserved,
    check_parallel,
    compare_events,
    reference_events,
)
from layers import (
    PER_LAYER,
    instrument,
    kernel_counters,
    layer_metrics,
    layer_shares,
    row_cache_counters,
)
from spans import Tracer
from workloads import WORKLOADS, build_episode, make_inputs

#: Set-up is timed once per episode; at least this many give its median.
MIN_EPISODES = 3
#: Plain/traced episode pairs of a traced run (for the tracing overhead).
TRACE_PAIRS = 3

#: ``(name, unit)`` of the end-to-end metrics, measured with tracing off.
END_TO_END = (
    ("events_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


def _verify_episode(checks: Checks, episode, before) -> float:
    """Full checks of one episode; returns the checkpoint load time."""
    check_conserved(checks, before, episode.species_counts())
    kind = episode.spec.kind
    if kind == "campaign":
        index = episode.inputs.seed % len(episode.specs)
        check_campaign_replica(checks, episode, index)
    elif kind == "parallel":
        return check_parallel(checks, episode)
    return 0.0


def measure(name: str, seed: int, seconds: float, tmp_dir: str):
    """Untraced run: identical episodes until ``seconds`` of stepping.

    Every set-up and every part of a timed loop is bracketed by host-speed
    probes (:mod:`calibrate`), and its wall time is converted to reference
    seconds with the mean slowdown of the two probes around it.
    """
    spec = WORKLOADS[name]
    inputs = make_inputs(name, seed)
    checks = Checks()

    rates, setups, wall_rates, probes = [], [], [], []
    measured = 0.0
    first_state = None
    prefix = []
    while len(rates) < MIN_EPISODES or measured < seconds:
        p0 = calibrate.probe()
        t0 = time.perf_counter()
        episode = build_episode(spec, inputs, tmp_dir)
        setup = time.perf_counter() - t0
        try:
            before = episode.species_counts()
            p1 = calibrate.probe()
            # Set-up is mostly object construction, interpreter work that
            # follows the probe fully; the loop follows it by its workload's
            # sensitivity, probed between the parts of the episode.
            setups.append(setup / calibrate.slowdown((p0 + p1) / 2, 1.0))
            events, elapsed, reference = 0, 0.0, 0.0
            for part in range(episode.n_parts):
                t0 = time.perf_counter()
                events += episode.run_part(part)
                dt = time.perf_counter() - t0
                p2 = calibrate.probe()
                elapsed += dt
                reference += dt / calibrate.slowdown(
                    (p1 + p2) / 2, spec.host_sensitivity
                )
                p1 = p2
            measured += elapsed
            rates.append(events / reference)
            wall_rates.append(events / elapsed)
            probes.append(p1)
            if first_state is None:
                # One episode holds all the memory a run of this workload
                # needs; later episodes only add uncollected garbage.
                peak_mb = (
                    resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
                )
                # The first episode gets every check; the rest must repeat
                # it bit for bit.
                first_state = episode.state()
                checks.run(
                    "episode checks",
                    lambda: _verify_episode(checks, episode, before),
                )
                prefix = list(getattr(episode, "prefix", ()))
            else:
                checks.record(
                    f"episode {len(rates)} did not repeat episode 1",
                    episode.state() == first_state,
                )
        finally:
            episode.close()
            del episode
            gc.collect()  # outside the timed loop, so no episode pays for it
    if spec.replay:
        checks.run(
            "reference replay",
            lambda: compare_events(
                checks, prefix, reference_events(spec, seed, spec.replay)
            ),
        )
    values = {
        "events_per_s": statistics.median(rates),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_mb,
    }
    metrics = {n: {"value": values[n], "unit": u} for n, u in END_TO_END}
    info = {
        "episodes": len(rates),
        "measured_wall_s": measured,
        "wall_events_per_s": statistics.median(wall_rates),
        "episode_events_per_s": rates,
        "episode_wall_events_per_s": wall_rates,
        "episode_setup_s": setups,
        "probe_s": probes,
    }
    return metrics, checks, info


def _reference_seconds(run, sensitivity: float) -> Tuple[object, float]:
    """``run()``'s result and its time in reference seconds."""
    p0 = calibrate.probe()
    t0 = time.perf_counter()
    result = run()
    elapsed = time.perf_counter() - t0
    p1 = calibrate.probe()
    return result, elapsed / calibrate.slowdown((p0 + p1) / 2, sensitivity)


def traced(name: str, seed: int, tmp_dir: str, out_dir: str):
    """Traced run: the same episode alternately plain and traced.

    The first traced episode gives the layer metrics; the tracing overhead
    is the median traced time over the median plain time of all pairs.
    """
    spec = WORKLOADS[name]
    checks = Checks()
    inputs = make_inputs(name, seed)
    plain_s, traced_s = [], []
    plain_state = None
    for pair in range(TRACE_PAIRS):
        plain = build_episode(spec, inputs, tmp_dir)
        try:
            plain_s.append(
                _reference_seconds(plain.run, spec.host_sensitivity)[1]
            )
            if plain_state is None:
                plain_state = plain.state()
        finally:
            plain.close()

        episode = build_episode(spec, inputs, tmp_dir)
        tracer = Tracer(f"{name}-{seed}-{os.getpid()}-{pair}")
        try:
            k_before = kernel_counters(episode)
            rc_before = row_cache_counters(episode)
            ledger = instrument(tracer, episode)
            before = episode.species_counts()
            n_events, secs = _reference_seconds(
                episode.run, spec.host_sensitivity
            )
            traced_s.append(secs)
            checks.record(
                "traced trajectory differs from the untraced one",
                episode.state() == plain_state,
            )
            if pair == 0:
                events, first = n_events, tracer
                values: Dict[str, float] = layer_metrics(
                    tracer, episode, events, ledger, k_before, rc_before
                )
                load_s = checks.run(
                    "episode checks",
                    lambda: _verify_episode(checks, episode, before),
                )
                if spec.kind == "parallel":
                    values["checkpoint.load_ms"] = (load_s or 0.0) * 1e3
                    values["checkpoint.bytes"] = float(
                        os.path.getsize(episode.checkpoint_path)
                    )
        finally:
            episode.close()
    values["trace.overhead_pct"] = 100.0 * (
        statistics.median(traced_s) / statistics.median(plain_s) - 1.0
    )
    os.makedirs(out_dir, exist_ok=True)
    first.write(os.path.join(out_dir, f"spans-{name}-{seed}.json"))
    metrics = {
        n: {"value": values[n], "unit": u} for n, u, _ in PER_LAYER
    }
    info = {
        "events": events,
        "spans": len(first.names),
        "plain_ref_s": plain_s,
        "traced_ref_s": traced_s,
        "layer_shares": layer_shares(first),
        "inclusive_us_per_event": {
            n: float(first.durations(n).sum()) * 1e6 / max(events, 1)
            for n in sorted(set(first.names))
        },
    }
    return metrics, checks, info


def result_line(metrics, checks: Checks) -> str:
    """The contract's last line; every run records at least one check."""
    return json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": metrics,
    })
