"""The four workloads: what they are, why, and their seeded inputs.

A run measures a *fixed amount of work* sized from ``--seconds``:
``measured ops = ops_per_second * seconds`` with ``ops_per_second`` the
rate the 2-core build host sustains, so a run there lasts about
``--seconds`` and, unlike a deadline, a slower engine still executes
the same operations (a deadline would hand a slower engine an emptier,
cheaper network and hide part of the regression in every latency).

Inputs depend on ``(seed, seconds)`` only.  Topologies are part of the
system under test, not of the traffic, and stay fixed across seeds.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Dict, List, Tuple

from repro.experiments.config import DEFAULT_PARAMETERS, ExperimentScale
from repro.experiments.sweep import CellSpec, cell_scenario
from repro.faults import FaultPlan
from repro.faults.plan import (
    FailureBurstFaults,
    LinkFlapFaults,
    SignalingFaults,
)
from repro.server.loadgen import LoadGenConfig, TimelineEvent, build_timeline
from repro.topology import mesh_network, waxman_network
from repro.topology.waxman import WaxmanParameters

from spans import CELL, CHURN, MESH8, WAX500

#: Share of the measured ops the traced run (and its untraced twin)
#: replays: the pair then costs about as much as one untraced run.
TRACE_FRACTION = 0.4

#: Seed of the 500-node Waxman graph (fixed: see the module docstring).
WAX500_TOPOLOGY_SEED = 500

#: `paper-wax60-cell` simulates ``CELL_VIRTUAL_PER_SECOND * seconds``
#: virtual seconds; at ``--seconds 30`` that is exactly PAPER_SCALE
#: (14 400 s, warm-up 7 200 s, 6 snapshots).
CELL_VIRTUAL_PER_SECOND = 480.0
CELL_SCHEMES = ("no-backup", "D-LSR", "P-LSR", "BF")

CHURN_PLAN = FaultPlan(
    name="e2e-churn",
    flaps=LinkFlapFaults(rate=2.0, down_min=2.0, down_max=10.0),
    bursts=FailureBurstFaults(rate=0.2, size_min=2, size_max=4,
                              down_min=5.0, down_max=20.0, correlated=True),
    signaling=SignalingFaults(drop_prob=0.02, duplicate_prob=0.02,
                              crash_prob=0.01),
)


@dataclass(frozen=True)
class Workload:
    """One workload's fixed definition."""

    name: str
    why: str
    scheme: str
    #: Ops the build host answers per second (sets the work per run).
    ops_per_second: float
    #: Ops replayed before the clock starts; they end ``setup_s``.
    warmup_ops: int
    #: Set-ups per run (the run reports their median): more where one
    #: set-up is short, because a short timing is a noisy one.
    setup_reps: int
    #: Closed-loop window of the one client connection (serve only).
    window: int = 0
    #: Arguments of ``build_timeline`` (timeline workloads only).
    rate: float = 50.0
    hold: Tuple[float, float] = (2.0, 6.0)
    traffic: str = "poisson"


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        MESH8,
        "live server, 8x8 mesh, P-LSR, window 32: cheapest engine work per "
        "request, so decode/queue/encode and metrics weigh most",
        scheme="P-LSR", ops_per_second=5000.0, warmup_ops=2500, setup_reps=5,
        window=32,
    ),
    Workload(
        WAX500,
        "live server, 500-node Waxman, D-LSR, window 1: set-up latency with "
        "nothing queued; search-bound, MMPP + drifting hot-spot traffic",
        scheme="D-LSR", ops_per_second=900.0, warmup_ops=500, setup_reps=5,
        window=1,
        hold=(20.0, 60.0), traffic="production",
    ),
    Workload(
        CELL,
        "in-process Figure-4/5 cell (E=4, NT, lambda 0.9) under no-backup, "
        "D-LSR, P-LSR, BF: saturated, the only BF/simulation/assess workload",
        scheme="D-LSR", ops_per_second=0.0, warmup_ops=200, setup_reps=7,
    ),
    Workload(
        CHURN,
        "in-process 16x16 mesh, D-LSR under link flaps, bursts and lossy "
        "signaling: recovery (fail_link, reconfigure) and the per-hop walk",
        scheme="D-LSR", ops_per_second=330.0, warmup_ops=300, setup_reps=9,
        hold=(10.0, 50.0),
    ),
)}


@dataclass
class Inputs:
    """Everything a run consumes, generated before any clock starts."""

    workload: Workload
    seed: int
    seconds: float
    digest: str
    build_s: float
    #: Timeline workloads: the op sequence, warm-up first.
    events: List[TimelineEvent] = field(default_factory=list)
    #: `paper-wax60-cell`: the scenario.
    scenario: Any = None
    #: The topology the program is given (and the reference twin).
    network: Any = None
    #: Reference admit decisions of the sequential twin, by the number
    #: of ops replayed (filled in by the first serve run that needs it).
    reference: Dict[int, List[int]] = field(default_factory=dict)

    @property
    def measured_ops(self) -> int:
        return len(self.events) - self.workload.warmup_ops

    @property
    def trace_ops(self) -> int:
        return max(1, int(self.measured_ops * TRACE_FRACTION))


def _digest(payload) -> str:
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def mesh8_network():
    return mesh_network(8, 8, 32.0)


def mesh16_network():
    return mesh_network(16, 16, 32.0)


def wax500_network():
    return waxman_network(
        500, capacity=40.0,
        parameters=WaxmanParameters(target_degree=4.0),
        rng=random.Random(WAX500_TOPOLOGY_SEED),
    )


def wax60_network():
    """The paper's E=4 evaluation graph, built fresh (the cached
    ``make_network`` would make every set-up after the first free)."""
    params = DEFAULT_PARAMETERS
    return waxman_network(
        params.num_nodes, capacity=params.link_capacity,
        parameters=WaxmanParameters(target_degree=4.0),
        rng=random.Random(params.topology_seed + 4),
    )


NETWORKS = {MESH8: mesh8_network, WAX500: wax500_network,
            CELL: wax60_network, CHURN: mesh16_network}


def _timeline(workload: Workload, seed: int, total_ops: int, network
              ) -> List[TimelineEvent]:
    """The first ``total_ops`` events of a seeded timeline long enough
    to hold them (every arrival is followed by at most one release, so
    twice the arrival rate bounds the op rate from above)."""
    plan = CHURN_PLAN if workload.name == CHURN else None
    duration = max(
        4.0 * workload.hold[1], 1.5 * total_ops / (2.0 * workload.rate)
    )
    while True:
        config = LoadGenConfig(
            arrival_rate=workload.rate, duration=duration,
            hold_min=workload.hold[0], hold_max=workload.hold[1],
            master_seed=seed, fault_plan=plan, workload=workload.traffic,
        )
        events = build_timeline(
            config, network.num_nodes, network.num_links,
            network=network if plan is not None else None,
        )
        if len(events) >= total_ops:
            return events[:total_ops]
        duration *= 1.5


def generate(workload: Workload, seed: int, seconds: float, network
             ) -> Inputs:
    """Seeded inputs for one run of ``workload``."""
    started = perf_counter()
    if workload.name == CELL:
        duration = CELL_VIRTUAL_PER_SECOND * seconds
        scale = ExperimentScale("e2e", duration=duration,
                                warmup=duration / 2.0, snapshot_count=6)
        scenario = cell_scenario(
            CellSpec(4, "NT", 0.9), scale, DEFAULT_PARAMETERS, seed
        )
        build_s = perf_counter() - started
        digest = _digest([
            (r.request_id, r.source, r.destination, r.bw_req,
             r.arrival_time, r.holding_time) for r in scenario.requests
        ])
        return Inputs(workload, seed, seconds, digest, build_s,
                      scenario=scenario, network=network)
    total = workload.warmup_ops + max(
        1, int(round(workload.ops_per_second * seconds))
    )
    events = _timeline(workload, seed, total, network)
    build_s = perf_counter() - started
    digest = _digest([(e.op, e.args) for e in events])
    return Inputs(workload, seed, seconds, digest, build_s, events=events,
                  network=network)
