"""The four benchmark workloads: inputs from a seed, set-up, and the timed loop.

Every workload is a closed loop: one caller drives the public API and waits
for each event (serial), round (campaign) or cycle (parallel) before asking
for the next.  A run is a sequence of identical *episodes*: each builds the
program's objects from the inputs of ``(workload, seed)`` (the timed
set-up) and then executes a fixed amount of KMC work (the timed loop).
Every episode does the same work, so each must end in the same state.  The
program only ever receives inputs — lattices, network weights, rank grids,
replica seeds, ``t_stop`` — and never a mode knob, so the benchmark stays
valid when the program changes how it picks its modes.
"""

from __future__ import annotations

import os
import time
import zlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro import LatticeState, NNPotential, TensorKMCEngine
from repro.campaign import (
    ReplicaCampaign,
    alloy_engine_factory,
    occupancy_digest,
    seed_sweep,
)
from repro.core.tet import TripleEncoding
from repro.io.checkpoint import save_parallel_checkpoint
from repro.nnp import ElementNetworks
from repro.parallel import SublatticeKMC
from repro.potentials import FeatureTable

#: Hidden layers of the randomly initialised network potential.
HIDDEN = (64, 32)
#: Fe-Cu alloy: 5 at.% Cu everywhere (dilute matrix, as in RPV steels but
#: richer in solute so clusters form within a short run).
CU_FRACTION = 0.05


@dataclass(frozen=True)
class WorkloadSpec:
    """Problem size and per-episode work of one workload."""

    name: str
    kind: str  # "serial", "campaign" or "parallel"
    box: int
    rcut: float
    vacancy_fraction: float
    #: serial: events per episode; campaign: events per replica;
    #: parallel: sublattice cycles per episode.
    work: int
    #: serial only: events replayed on the cache-free reference engine.
    replay: int = 0
    replicas: int = 1
    grid: Tuple[int, int, int] = (1, 1, 1)
    t_stop: float = 0.0
    checkpoint_every: int = 4
    #: Exponent of the host slowdown the timed loop feels (calibrate.py).
    #: Interpreter-bound loops follow the probe fully; a loop that spends
    #: most of its time in BLAS calls follows it less strongly.
    host_sensitivity: float = 1.0


#: README.md gives the reason each workload was chosen.
WORKLOADS: Dict[str, WorkloadSpec] = {
    spec.name: spec
    for spec in (
        WorkloadSpec(
            "dilute-short-cutoff", "serial", box=16, rcut=2.87,
            vacancy_fraction=0.02, work=1000, replay=60,
        ),
        WorkloadSpec(
            "paper-cutoff", "serial", box=12, rcut=6.5,
            vacancy_fraction=0.02, work=160, replay=8,
            host_sensitivity=0.7,
        ),
        WorkloadSpec(
            "campaign-sweep", "campaign", box=10, rcut=2.87,
            vacancy_fraction=0.02, work=150, replicas=8,
            host_sensitivity=0.7,
        ),
        WorkloadSpec(
            "sublattice-8rank", "parallel", box=16, rcut=2.87,
            vacancy_fraction=0.01, work=26, grid=(2, 2, 2), t_stop=1e-7,
        ),
    )
}


# ----------------------------------------------------------------------
# Inputs: a pure function of (workload, seed)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Inputs:
    """Everything the program receives in one episode."""

    seed: int
    #: Lattice occupancies: one for serial and parallel workloads, none for
    #: the campaign, whose replica factory draws them from ``rng_seeds``.
    occupancies: Tuple[np.ndarray, ...]
    #: Engine RNG seed per replica (parallel: rank ``r`` uses ``seed + r``).
    rng_seeds: Tuple[int, ...]
    #: Per-element ``[W0, b0, W1, b1, ...]`` of the network potential.
    net_params: Tuple[Tuple[np.ndarray, ...], ...]
    #: ``(mean, std, reference energies, energy scale)`` standardisation.
    standardisation: Tuple[np.ndarray, np.ndarray, np.ndarray, float]


def _seed_ints(workload: str, seed: int, n: int) -> List[int]:
    tag = zlib.crc32(workload.encode())
    state = np.random.SeedSequence([tag, int(seed)])
    return [int(v) for v in state.generate_state(n, dtype=np.uint32)]


def make_inputs(workload: str, seed: int) -> Inputs:
    """Generate a run's inputs; equal arguments give equal inputs."""
    spec = WORKLOADS[workload]
    n_lattices = spec.replicas
    seeds = _seed_ints(workload, seed, 2 * n_lattices + 1)
    tet = TripleEncoding(rcut=spec.rcut)
    n_dim = FeatureTable(tet.shell_distances).n_dim
    net_rng = np.random.default_rng(seeds[0])
    nets = ElementNetworks((2 * n_dim, *HIDDEN, 1), net_rng)
    net_params = tuple(
        tuple(p.copy() for p in nets.nets[e].get_parameters())
        for e in sorted(nets.nets)
    )
    n_feat = 2 * n_dim
    standardisation = (
        np.full(n_feat, 0.1, dtype=np.float32),
        np.full(n_feat, 2.0, dtype=np.float32),
        np.array([-4.0, -3.5]),
        0.05,
    )
    # Campaign replicas draw their disorder from their spec seeds through
    # the program's own replica factory; the other kinds get one lattice.
    occupancies = []
    for r in range(0 if spec.kind == "campaign" else n_lattices):
        lattice = LatticeState((spec.box,) * 3)
        lattice.randomize_alloy(
            np.random.default_rng(seeds[1 + 2 * r]),
            cu_fraction=CU_FRACTION,
            vacancy_fraction=spec.vacancy_fraction,
        )
        occupancies.append(lattice.occupancy)
    rng_seeds = tuple(s % (2**31) for s in seeds[2::2])
    return Inputs(
        int(seed), tuple(occupancies), rng_seeds, net_params, standardisation
    )


def build_potential(inputs: Inputs, tet: TripleEncoding) -> NNPotential:
    """The network potential described by ``inputs``."""
    table = FeatureTable(tet.shell_distances)
    channels = (2 * table.n_dim, *HIDDEN, 1)
    nets = ElementNetworks(channels, np.random.default_rng(0))
    for e, params in enumerate(inputs.net_params):
        nets.nets[e].set_parameters(params)
    model = NNPotential(table, nets, rcut=tet.rcut)
    model.set_standardisation(*inputs.standardisation)
    return model


def build_lattice(spec: WorkloadSpec, occupancy: np.ndarray) -> LatticeState:
    lattice = LatticeState((spec.box,) * 3)
    lattice.occupancy = occupancy.copy()
    return lattice


# ----------------------------------------------------------------------
# Episodes: construction is the set-up, run() is the timed work
# ----------------------------------------------------------------------
#: The timed work of an episode is split into this many equal parts so that
#: host-speed probes between them follow the host through the episode.
PARTS = 4


def _part_bounds(work: int, i: int, parts: int) -> Tuple[int, int]:
    return work * i // parts, work * (i + 1) // parts


class SerialEpisode:
    """One :class:`TensorKMCEngine`, cold-built and ready to step."""

    def __init__(self, spec: WorkloadSpec, inputs: Inputs) -> None:
        self.spec = spec
        self.inputs = inputs
        self.tet = TripleEncoding(rcut=spec.rcut)
        self.potential = build_potential(inputs, self.tet)
        self.lattice = build_lattice(spec, inputs.occupancies[0])
        self.engine = TensorKMCEngine(
            self.lattice, self.potential, self.tet,
            rng=np.random.default_rng(inputs.rng_seeds[0]),
        )
        self.engine.total_propensity()  # the cold rate build
        self.prefix: List[Tuple[int, int, float]] = []
        self.n_parts = PARTS

    def _keep(self, event) -> None:
        if len(self.prefix) < self.spec.replay:
            self.prefix.append((event.from_site, event.to_site, event.time))

    def run_part(self, i: int) -> int:
        lo, hi = _part_bounds(self.spec.work, i, self.n_parts)
        return self.engine.run(n_steps=hi - lo, callback=self._keep)

    def run(self) -> int:
        return sum(self.run_part(i) for i in range(self.n_parts))

    def species_counts(self) -> np.ndarray:
        return self.lattice.species_counts()

    def state(self) -> Tuple:
        """Final state: occupancy digest, clock and event count."""
        engine = self.engine
        return (occupancy_digest(engine.lattice), engine.time, engine.step_count)

    def close(self) -> None:
        pass


class CampaignEpisode:
    """A seed-sweep :class:`ReplicaCampaign` over cold-built replicas."""

    def __init__(self, spec: WorkloadSpec, inputs: Inputs) -> None:
        self.spec = spec
        self.inputs = inputs
        self.tet = TripleEncoding(rcut=spec.rcut)
        self.potential = build_potential(inputs, self.tet)
        self.specs = seed_sweep(inputs.rng_seeds, n_steps=spec.work)
        self.factory = alloy_engine_factory(
            spec.box, self.potential, self.tet, cu_fraction=CU_FRACTION,
            vacancy_fraction=spec.vacancy_fraction,
        )
        self.engines = {s.name: self.factory(s) for s in self.specs}
        for engine in self.engines.values():
            engine.total_propensity()  # the cold rate build
        self.campaign = ReplicaCampaign(
            self.specs, lambda s: self.engines[s.name]
        )
        self.results = []
        self.n_parts = 1  # ReplicaCampaign.run() runs to completion

    def run_part(self, i: int) -> int:
        self.results = self.campaign.run()
        return sum(r.executed for r in self.results)

    def run(self) -> int:
        return self.run_part(0)

    def species_counts(self) -> np.ndarray:
        return sum(
            e.lattice.species_counts() for e in self.engines.values()
        )

    def state(self) -> Tuple:
        return tuple((r.digest, r.time, r.executed) for r in self.results)

    def close(self) -> None:
        pass


class ParallelEpisode:
    """A :class:`SublatticeKMC` world with periodic checkpoint writes."""

    def __init__(
        self, spec: WorkloadSpec, inputs: Inputs, tmp_dir: str
    ) -> None:
        self.spec = spec
        self.inputs = inputs
        self.tet = TripleEncoding(rcut=spec.rcut)
        self.potential = build_potential(inputs, self.tet)
        lattice = build_lattice(spec, inputs.occupancies[0])
        self.sim = SublatticeKMC(
            lattice, self.potential, self.tet, grid=spec.grid,
            t_stop=spec.t_stop, seed=inputs.rng_seeds[0],
        )
        self.checkpoint_path = os.path.join(tmp_dir, "checkpoint.npz")
        self.checkpoint_cycle: Optional[int] = None
        self.checkpoint_seconds: List[float] = []
        self.n_parts = PARTS

    def run_part(self, i: int) -> int:
        sim = self.sim
        before = sim.total_events
        lo, hi = _part_bounds(self.spec.work, i, self.n_parts)
        for c in range(lo + 1, hi + 1):
            sim.cycle()
            if c % self.spec.checkpoint_every == 0:
                t0 = time.perf_counter()
                save_parallel_checkpoint(self.checkpoint_path, sim)
                self.checkpoint_seconds.append(time.perf_counter() - t0)
                self.checkpoint_cycle = c
        return sim.total_events - before

    def run(self) -> int:
        return sum(self.run_part(i) for i in range(self.n_parts))

    def species_counts(self) -> np.ndarray:
        return self.sim.gather_global().species_counts()

    def state(self) -> Tuple:
        sim = self.sim
        return (occupancy_digest(sim.gather_global()), sim.time, sim.total_events)

    def close(self) -> None:
        self.sim.close()


def build_episode(spec: WorkloadSpec, inputs: Inputs, tmp_dir: str):
    if spec.kind == "serial":
        return SerialEpisode(spec, inputs)
    if spec.kind == "campaign":
        return CampaignEpisode(spec, inputs)
    return ParallelEpisode(spec, inputs, tmp_dir)
