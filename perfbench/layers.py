"""Per-layer metrics of a traced episode.

:func:`instrument` installs span wrappers on the public methods of every
layer a episode owns; :func:`layer_metrics` turns the finished trace, the
program's public counters (``kernel.counters()``, ``summary()``,
``CycleStats``) and an attached Sunway cost ledger into the ``per_layer``
metrics of ``BENCHMARK.json``.  A layer that a workload never calls reports
0, so every workload emits the full metric set.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple

import numpy as np

from repro.sunway import SW26010_PRO, CostLedger

from spans import Tracer, layer_self_times, tail_percentile

#: ``(name, unit, better)`` of every per-layer metric, in report order.
PER_LAYER: List[Tuple[str, str, str]] = [
    ("engine.step_us_p50", "us", "lower"),
    ("engine.step_us_tail", "us", "lower"),
    ("engine.step_tail_pct", "%", "higher"),
    ("kernel.refresh_us_per_event", "us", "lower"),
    ("kernel.select_us_per_event", "us", "lower"),
    ("kernel.move_us_per_event", "us", "lower"),
    ("kernel.invalidate_us_per_event", "us", "lower"),
    ("kernel.vet_hit_rate", "ratio", "higher"),
    ("kernel.invalidations_per_event", "count", "lower"),
    ("kernel.stale_rows_per_refresh", "count", "lower"),
    ("kernel.cache_kb", "KiB", "lower"),
    ("propensity.update_us_per_event", "us", "lower"),
    ("propensity.select_depth_mean", "count", "lower"),
    ("lattice.us_per_event", "us", "lower"),
    ("evaluator.batch_us_per_event", "us", "lower"),
    ("evaluator.rows_per_event", "count", "lower"),
    ("evaluator.unique_row_ratio", "ratio", "lower"),
    ("delta.build_us_per_event", "us", "lower"),
    ("delta.patch_us_per_event", "us", "lower"),
    ("rowcache.probes_per_event", "count", "lower"),
    ("rowcache.hit_rate", "ratio", "higher"),
    ("rowcache.lookup_us_per_event", "us", "lower"),
    ("rowcache.insert_us_per_event", "us", "lower"),
    ("rowcache.evictions", "count", "lower"),
    ("rowcache.resident_kb", "KiB", "lower"),
    ("nnp.infer_us_per_event", "us", "lower"),
    ("nnp.rows_per_event", "count", "lower"),
    ("nnp.mflop_per_event", "MFLOP", "lower"),
    ("nnp.gflop_per_s", "GFLOP/s", "higher"),
    ("sunway.ledger_mflop_per_event", "MFLOP", "lower"),
    ("sunway.ledger_dma_kb_per_event", "KiB", "lower"),
    ("campaign.admit_s", "s", "lower"),
    ("campaign.gather_s", "s", "lower"),
    ("campaign.evaluate_s", "s", "lower"),
    ("campaign.scatter_s", "s", "lower"),
    ("campaign.step_s", "s", "lower"),
    ("campaign.shared_rows_per_round", "count", "higher"),
    ("campaign.max_shared_batch", "count", "higher"),
    ("parallel.cycle_ms_p50", "ms", "lower"),
    ("parallel.cycle_ms_tail", "ms", "lower"),
    ("parallel.compute_ms_per_cycle", "ms", "lower"),
    ("parallel.exchange_ms_per_cycle", "ms", "lower"),
    ("parallel.messages_per_cycle", "count", "lower"),
    ("parallel.bytes_per_cycle", "B", "lower"),
    ("parallel.rank_event_imbalance", "ratio", "lower"),
    ("parallel.rejected_per_cycle", "count", "lower"),
    ("executor.wait_ms_per_cycle", "ms", "lower"),
    ("checkpoint.save_ms", "ms", "lower"),
    ("checkpoint.load_ms", "ms", "lower"),
    ("checkpoint.bytes", "B", "lower"),
    ("trace.overhead_pct", "%", "lower"),
]

#: Span names whose self time makes up each ``*_us_per_event`` metric.
SPAN_METRICS: Dict[str, Tuple[str, ...]] = {
    "kernel.refresh_us_per_event": ("kernel.refresh", "kernel.build"),
    "kernel.select_us_per_event": ("kernel.select",),
    "kernel.move_us_per_event": ("kernel.move",),
    "kernel.invalidate_us_per_event": ("kernel.invalidate",),
    "propensity.update_us_per_event": ("propensity.update",),
    "lattice.us_per_event": (
        "lattice.swap", "lattice.neighbor_ids", "lattice.half_coords",
        "lattice.ids_from_half",
    ),
    "evaluator.batch_us_per_event": (
        "evaluator.evaluate_batch", "evaluator.evaluate_rows",
        "evaluator.batch_from_row_energies", "evaluator.evaluate",
    ),
    "delta.build_us_per_event": ("delta.build",),
    "delta.patch_us_per_event": ("delta.patch",),
    "rowcache.lookup_us_per_event": ("rowcache.lookup",),
    "rowcache.insert_us_per_event": ("rowcache.insert",),
    "nnp.infer_us_per_event": ("nnp.infer",),
}

#: Layer groups for the share-of-wall-time report (self time per group).
LAYER_GROUPS = ("engine", "kernel", "propensity", "lattice", "evaluator",
                "delta", "rowcache", "nnp", "parallel")


def _rows(args, result) -> float:
    return float(len(args[0]))


# ----------------------------------------------------------------------
# Instrumentation
# ----------------------------------------------------------------------
def _instrument_kernel(tracer: Tracer, kernel) -> None:
    for attr, name in (
        ("refresh", "kernel.refresh"),
        ("select", "kernel.select"),
        ("move", "kernel.move"),
        ("invalidate_near", "kernel.invalidate"),
        ("build_entries", "kernel.build"),
        ("build_entries_delta", "delta.build"),
        ("patch_entries", "delta.patch"),
    ):
        tracer.wrap(kernel, attr, name)
    tracer.wrap(kernel.store, "update_many", "propensity.update")
    tracer.wrap(kernel.store, "update", "propensity.update")
    tracer.wrap(kernel.store, "select", "propensity.select")


def _instrument_evaluator(tracer: Tracer, evaluator) -> None:
    tet = evaluator.tet
    n_states = 1 + tet.N_DIRECTIONS
    tracer.wrap(
        evaluator, "evaluate_batch", "evaluator.evaluate_batch",
        lambda args, _: float(np.shape(args[0])[0] * n_states * tet.n_region),
    )
    tracer.wrap(
        evaluator, "evaluate_rows", "evaluator.evaluate_rows",
        lambda args, _: float(len(args[1]) * n_states),
    )
    tracer.wrap(
        evaluator, "evaluate", "evaluator.evaluate",
        lambda args, _: float(n_states * tet.n_region),
    )
    tracer.wrap(
        evaluator, "batch_from_row_energies",
        "evaluator.batch_from_row_energies",
    )
    tracer.wrap(evaluator.potential, "energies_from_counts", "nnp.infer", _rows)
    if evaluator.row_cache is not None:
        _instrument_row_cache(tracer, evaluator.row_cache)


def _instrument_row_cache(tracer: Tracer, cache) -> None:
    tracer.wrap(cache, "lookup", "rowcache.lookup", _rows)
    tracer.wrap(cache, "insert", "rowcache.insert")


def _instrument_engine(tracer: Tracer, engine) -> None:
    tracer.wrap(engine, "step", "engine.step")
    _instrument_kernel(tracer, engine.kernel)
    for attr in ("swap", "neighbor_ids", "half_coords", "ids_from_half"):
        tracer.wrap(engine.lattice, attr, f"lattice.{attr}")
    _instrument_evaluator(tracer, engine.evaluator)
    attach = engine.attach_row_cache

    def attach_traced(cache):
        # The campaign swaps every replica onto one cache it creates at
        # admission; trace that cache as soon as it appears.
        if cache is not None:
            _instrument_row_cache(tracer, cache)
        return attach(cache)

    engine.attach_row_cache = attach_traced


def instrument(tracer: Tracer, episode) -> CostLedger:
    """Install span wrappers on every layer of ``episode``; attach a ledger."""
    ledger = CostLedger(SW26010_PRO)
    kind = episode.spec.kind
    if kind == "serial":
        _instrument_engine(tracer, episode.engine)
        episode.engine.attach_cost_ledger(ledger)
    elif kind == "campaign":
        for engine in episode.engines.values():
            _instrument_engine(tracer, engine)
            engine.attach_cost_ledger(ledger)
    else:
        sim = episode.sim
        tracer.wrap(sim, "cycle", "parallel.cycle")
        for rank in sim.ranks:
            tracer.wrap(
                rank, "run_sector", "parallel.sector",
                lambda args, result: float(len(result)) / 2.0,
            )
            tracer.wrap(rank, "rescan_vacancies", "parallel.rescan")
            tracer.wrap(rank.exchanger, "send_updates", "parallel.ghost_send")
            tracer.wrap(rank.exchanger, "apply_updates", "parallel.ghost_apply")
            _instrument_kernel(tracer, rank.kernel)
        _instrument_evaluator(tracer, sim.evaluator)
        sim.attach_cost_ledger(ledger)
    return ledger


# ----------------------------------------------------------------------
# Counters read through the public API
# ----------------------------------------------------------------------
KERNEL_COUNTERS = ("cache_hits", "cache_misses", "invalidations",
                   "selections", "selection_depth", "batched_rows")


def kernel_counters(episode) -> Dict[str, float]:
    """Kernel counters summed over the episode's engines or ranks."""
    kind = episode.spec.kind
    if kind == "parallel":
        summary = episode.sim.summary()
        return {k: float(summary.get(k, 0)) for k in KERNEL_COUNTERS}
    engines = (
        [episode.engine] if kind == "serial" else list(episode.engines.values())
    )
    out = dict.fromkeys(KERNEL_COUNTERS, 0.0)
    for engine in engines:
        counters = engine.kernel.counters()
        for key in KERNEL_COUNTERS:
            out[key] += float(counters[key])
    return out


def row_caches(episode) -> List[object]:
    """The distinct row-energy caches a episode uses (possibly none)."""
    kind = episode.spec.kind
    if kind == "serial":
        found = [episode.engine.row_cache]
    elif kind == "campaign":
        found = [episode.campaign.row_cache]
    else:
        found = [episode.sim.row_cache]
    out, seen = [], set()
    for cache in found:
        if cache is not None and id(cache) not in seen:
            seen.add(id(cache))
            out.append(cache)
    return out


def row_cache_counters(episode) -> Dict[int, Tuple[int, int, int]]:
    return {
        id(c): (c.hits, c.misses, c.evictions) for c in row_caches(episode)
    }


def vacancy_cache_bytes(episode) -> float:
    kind = episode.spec.kind
    if kind == "serial":
        kernels = [episode.engine.kernel]
    elif kind == "campaign":
        kernels = [e.kernel for e in episode.engines.values()]
    else:
        kernels = [r.kernel for r in episode.sim.ranks]
    return float(sum(k.cache.memory_bytes() for k in kernels))


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def _per(num: float, den: float) -> float:
    return float(num) / float(den) if den else 0.0


def _samples(tracer: Tracer, names: Iterable[str]) -> float:
    return float(sum(v for n in names for _, v in tracer.samples.get(n, ())))


def _percentiles(values: np.ndarray, scale: float) -> Tuple[float, float, float]:
    if values.size == 0:
        return 0.0, 0.0, 0.0
    q = tail_percentile(values.size)
    return (
        float(np.percentile(values, 50.0) * scale),
        float(np.percentile(values, q) * scale),
        q,
    )


def layer_metrics(
    tracer: Tracer,
    episode,
    events: int,
    ledger: CostLedger,
    before: Dict[str, float],
    rc_before: Dict[int, Tuple[int, int, int]],
    cycles_before: int = 0,
) -> Dict[str, float]:
    """Every :data:`PER_LAYER` metric except ``trace.overhead_pct`` and the
    checkpoint load time, which the caller measures."""
    out = {name: 0.0 for name, _, _ in PER_LAYER}
    selfs = layer_self_times(tracer)
    for metric, spans in SPAN_METRICS.items():
        out[metric] = _per(sum(selfs.get(s, 0.0) for s in spans) * 1e6, events)

    steps = tracer.durations("engine.step")
    (out["engine.step_us_p50"], out["engine.step_us_tail"],
     tail_q) = _percentiles(steps, 1e6)
    out["engine.step_tail_pct"] = tail_q if steps.size else 0.0

    after = kernel_counters(episode)
    d = {k: after[k] - before.get(k, 0.0) for k in KERNEL_COUNTERS}
    out["kernel.vet_hit_rate"] = _per(
        d["cache_hits"], d["cache_hits"] + d["cache_misses"]
    )
    out["kernel.invalidations_per_event"] = _per(d["invalidations"], events)
    out["kernel.stale_rows_per_refresh"] = _per(
        d["batched_rows"], tracer.calls("kernel.refresh")
    )
    out["kernel.cache_kb"] = vacancy_cache_bytes(episode) / 1024.0
    out["propensity.select_depth_mean"] = _per(
        d["selection_depth"], d["selections"]
    )

    rows_in = _samples(tracer, (
        "evaluator.evaluate_batch", "evaluator.evaluate_rows",
        "evaluator.evaluate",
    ))
    rows_nnp = _samples(tracer, ("nnp.infer",))
    out["evaluator.rows_per_event"] = _per(rows_in, events)
    out["evaluator.unique_row_ratio"] = _per(rows_nnp, rows_in)

    hits = misses = evictions = resident = 0.0
    for cache in row_caches(episode):
        h0, m0, e0 = rc_before.get(id(cache), (0, 0, 0))
        hits += cache.hits - h0
        misses += cache.misses - m0
        evictions += cache.evictions - e0
        resident += cache.memory_bytes()
    out["rowcache.probes_per_event"] = _per(
        _samples(tracer, ("rowcache.lookup",)), events
    )
    out["rowcache.hit_rate"] = _per(hits, hits + misses)
    out["rowcache.evictions"] = evictions
    out["rowcache.resident_kb"] = resident / 1024.0

    channels = episode.potential.network_channels
    flop_per_row = sum(2.0 * a * b for a, b in zip(channels[:-1], channels[1:]))
    out["nnp.rows_per_event"] = _per(rows_nnp, events)
    out["nnp.mflop_per_event"] = _per(rows_nnp * flop_per_row / 1e6, events)
    out["nnp.gflop_per_s"] = _per(
        rows_nnp * flop_per_row / 1e9, selfs.get("nnp.infer", 0.0)
    )
    out["sunway.ledger_mflop_per_event"] = _per(
        ledger.total_flops / 1e6, events
    )
    out["sunway.ledger_dma_kb_per_event"] = _per(
        (ledger.dma_bytes + ledger.random_bytes) / 1024.0, events
    )

    if episode.spec.kind == "campaign":
        summary = episode.campaign.summary()
        for phase in ("admit", "gather", "evaluate", "scatter", "step"):
            out[f"campaign.{phase}_s"] = float(summary[f"{phase}_seconds"])
        out["campaign.shared_rows_per_round"] = _per(
            summary["shared_rows"], summary["rounds"]
        )
        out["campaign.max_shared_batch"] = float(summary["max_shared_batch"])

    if episode.spec.kind == "parallel":
        out.update(_parallel_metrics(tracer, episode, cycles_before))
    return out


def _parallel_metrics(tracer: Tracer, episode, cycles_before: int):
    sim = episode.sim
    stats = sim.cycles[cycles_before:]
    n = len(stats)
    out = {}
    p50, tail, _ = _percentiles(tracer.durations("parallel.cycle"), 1e3)
    out["parallel.cycle_ms_p50"] = p50
    out["parallel.cycle_ms_tail"] = tail
    out["parallel.compute_ms_per_cycle"] = _per(
        sum(c.compute_seconds for c in stats) * 1e3, n
    )
    out["parallel.exchange_ms_per_cycle"] = _per(
        sum(c.exchange_seconds for c in stats) * 1e3, n
    )
    out["parallel.messages_per_cycle"] = _per(
        sum(c.comm_messages for c in stats), n
    )
    out["parallel.bytes_per_cycle"] = _per(sum(c.comm_bytes for c in stats), n)
    out["parallel.rejected_per_cycle"] = _per(sum(c.rejected for c in stats), n)
    out["executor.wait_ms_per_cycle"] = _per(
        sum(c.exchange_wait_seconds for c in stats) * 1e3, n
    )
    # Events per rank per cycle: the sector spans' counts grouped by the
    # cycle span that contains them; the slowest rank sets cycle time.
    per_cycle: Dict[int, List[float]] = {}
    for sid, value in tracer.samples.get("parallel.sector", ()):
        per_cycle.setdefault(tracer.parents[sid], []).append(value)
    ratios = [
        max(v) / (sum(v) / len(v)) for v in per_cycle.values() if sum(v) > 0
    ]
    out["parallel.rank_event_imbalance"] = (
        float(np.mean(ratios)) if ratios else 0.0
    )
    if episode.checkpoint_seconds:
        out["checkpoint.save_ms"] = float(
            np.median(episode.checkpoint_seconds) * 1e3
        )
    return out


def layer_shares(tracer: Tracer) -> Dict[str, float]:
    """Share of the traced loop's self time spent in each layer group."""
    selfs = layer_self_times(tracer)
    total = sum(selfs.values())
    shares = dict.fromkeys(LAYER_GROUPS, 0.0)
    for name, secs in selfs.items():
        group = name.split(".", 1)[0]
        shares[group] = shares.get(group, 0.0) + _per(secs, total)
    return shares
