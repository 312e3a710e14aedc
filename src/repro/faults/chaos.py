"""Chaos campaigns: a workload replayed under a fault plan.

A campaign drives one :class:`~repro.core.service.DRTPService` through
a Poisson DR-connection workload while the
:class:`~repro.faults.injector.FaultInjector` makes its life hard:
register packets drop, routers crash mid-walk, links flap singly and
in correlated bursts, and the link-state database serves bounded-stale
records.  After **every** injected fault the runner re-checks the
service's cross-layer invariants — a chaos campaign that finishes is a
proof that no fault sequence in it could corrupt resource accounting.

The runner measures what the paper's Section 2.3 re-establishment loop
is for: when signaling faults force a degraded (unprotected) admission,
how long until the background retry restores the backup, and what
fraction of degraded connections ever ride unprotected into a failure
or their own departure.

Determinism: workload and faults derive from independent streams of
one master seed, so ``run_campaign(plan, config)`` twice yields
``ChaosReport.to_dict()``-identical results — asserted by the smoke
test and by ``repro chaos --verify``.

Tracing: the runner takes no collector.  Run under an open span (``repro
chaos --trace-dir`` opens a ``chaos.campaign`` root), every engine
action runs in a ``chaos.arrive`` / ``depart`` / ``retry`` / ``fault``
/ ``settle`` child tagged with the simulated ``time``, and the service
spans it causes nest under that child; with no span open it runs
untraced.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional

from ..analysis.chaos_report import ChaosReport
from ..core.multiplexing import GroupAwareSparePolicy
from ..core.service import DRTPService
from ..observability import UNTRACED, current_span
from ..simulation.arrivals import HoldingTimeDistribution
from ..simulation.engine import Engine
from ..simulation.rng import derive_seed
from ..simulation.scenario import generate_scenario
from ..topology.mesh import mesh_network
from ..topology.srlg import mesh_conduit_groups
from .injector import (
    BURST_DOWN,
    BURST_UP,
    FLAP_DOWN,
    FLAP_UP,
    REFRESH,
    REGIONAL_DOWN,
    REGIONAL_UP,
    STALENESS,
    FaultInjector,
)
from .plan import FaultPlan
from .retry import RetryPolicy

#: How a degraded connection's wait for re-protection ended.
_REPROTECTED = "reprotected"
_DEPARTED = "departed"


@dataclass(frozen=True)
class CampaignConfig:
    """Workload and environment of one chaos campaign (the paper's
    8x8 torus evaluation topology by default)."""

    rows: int = 8
    cols: int = 8
    capacity: float = 30.0
    scheme: str = "D-LSR"
    arrival_rate: float = 2.0
    duration: float = 600.0
    holding_min: float = 60.0
    holding_max: float = 240.0
    bw_req: float = 1.0
    seed: int = 0
    #: Background re-protection cadence for degraded connections.
    backup_retry_interval: float = 5.0
    #: Residual-unprotection sampling points over the horizon.
    unprotected_samples: int = 32
    #: After the horizon: repair every link, re-flood, and drain the
    #: re-protection queue — models the control plane finishing its
    #: queued work once the adversity stops.
    settle: bool = True
    #: Shared-risk model: ``"none"`` keeps the paper's per-link world;
    #: ``"conduits"`` bundles the mesh's row/column conduits into an
    #: SRLG assignment, sizes spare with
    #: :class:`~repro.core.multiplexing.GroupAwareSparePolicy`, and
    #: lets the plan's regional family cut whole conduits.
    srlg: str = "none"

    def __post_init__(self) -> None:
        if self.duration <= 0:
            raise ValueError("duration must be positive")
        if self.backup_retry_interval <= 0:
            raise ValueError("backup_retry_interval must be positive")
        if self.srlg not in ("none", "conduits"):
            raise ValueError(
                "srlg must be 'none' or 'conduits', got {!r}".format(
                    self.srlg
                )
            )


def _step(name: str, now: float, **tags: Any):
    """The span one engine action runs in: ``chaos.<name>`` at
    simulated time ``now``, a child of the open span — or
    :data:`~repro.observability.UNTRACED` when none is open."""
    parent = current_span()
    if parent is None:
        return UNTRACED
    return parent.child("chaos." + name, "chaos", time=now, **tags)


def run_campaign(
    plan: FaultPlan,
    config: Optional[CampaignConfig] = None,
    retry_policy: Optional[RetryPolicy] = None,
) -> ChaosReport:
    """Replay one seeded workload under one fault plan; return the
    measured :class:`~repro.analysis.chaos_report.ChaosReport`."""
    config = config or CampaignConfig()
    retry_policy = retry_policy or RetryPolicy()

    network = mesh_network(config.rows, config.cols, config.capacity)
    scenario = generate_scenario(
        num_nodes=network.num_nodes,
        arrival_rate=config.arrival_rate,
        duration=config.duration,
        bw_req=config.bw_req,
        holding=HoldingTimeDistribution(
            minimum=config.holding_min, maximum=config.holding_max
        ),
        seed=derive_seed(config.seed, "workload"),
    )
    injector = FaultInjector(plan, seed=derive_seed(config.seed, "faults"))

    risk_groups = None
    spare_policy = None
    if config.srlg == "conduits":
        risk_groups = mesh_conduit_groups(network, config.rows, config.cols)
        spare_policy = GroupAwareSparePolicy()

    from ..experiments import make_scheme

    service = DRTPService(
        network,
        make_scheme(config.scheme),
        spare_policy=spare_policy,
        fault_injector=injector,
        retry_policy=retry_policy,
        risk_groups=risk_groups,
    )

    report = ChaosReport(
        plan_name=plan.name,
        seed=config.seed,
        scheme=config.scheme,
        duration=config.duration,
        srlg_mode=config.srlg,
    )
    engine = Engine()

    # Connection ids currently waiting for re-protection -> the time
    # they became unprotected; which of them were *admitted* degraded
    # (the set the headline recovery ratio is over); and each degraded
    # admission's first-resolution outcome.  A connection can wait more
    # than once (a later failure may strip a regained backup) — every
    # wait is retried and timed, but the ratio counts first outcomes.
    waiting_since: Dict[int, float] = {}
    degraded_admitted: set = set()
    first_outcome: Dict[int, str] = {}

    def resolve(connection_id: int, outcome: str, now: float) -> None:
        since = waiting_since.pop(connection_id, None)
        if since is None:
            return
        first_outcome.setdefault(connection_id, outcome)
        if outcome == _REPROTECTED:
            report.recovery_latencies.append(now - since)

    def sweep_waiting(now: float) -> None:
        """Settle any waiting connection whose fate changed sideways:
        re-protected by failure reconfiguration, or gone."""
        for connection_id in list(waiting_since):
            if not service.has_connection(connection_id):
                resolve(connection_id, _DEPARTED, now)
                continue
            conn = service.connection(connection_id)
            if not conn.is_active:
                resolve(connection_id, _DEPARTED, now)
            elif conn.backup is not None:
                resolve(connection_id, _REPROTECTED, now)

    def start_waiting(connection_id: int, now: float) -> None:
        if connection_id in waiting_since:
            return
        waiting_since[connection_id] = now
        schedule_retry(connection_id)

    def schedule_retry(connection_id: int) -> None:
        interval = config.backup_retry_interval

        def attempt() -> None:
            now = engine.now
            if not service.has_connection(connection_id):
                resolve(connection_id, _DEPARTED, now)
                return
            with _step("retry", now):
                restored = service.reestablish_backup(connection_id)
            if restored:
                resolve(connection_id, _REPROTECTED, now)
                return
            if now + interval <= config.duration:
                engine.schedule_after(interval, attempt)

        engine.schedule_after(interval, attempt)

    # -- workload ---------------------------------------------------------
    def arrive(request):
        def action() -> None:
            now = engine.now
            with _step("arrive", now):
                decision = service.admit(request)
            if decision.accepted:
                engine.schedule(request.departure_time, depart(request))
                if decision.degraded:
                    degraded_admitted.add(request.request_id)
                    start_waiting(request.request_id, now)

        return action

    def depart(request):
        def action() -> None:
            now = engine.now
            if service.has_connection(request.request_id):
                with _step("depart", now):
                    service.release(request.request_id)
            resolve(request.request_id, _DEPARTED, now)

        return action

    for request in scenario.requests:
        engine.schedule(request.arrival_time, arrive(request))

    # -- injected faults --------------------------------------------------
    def apply_fault(fault):
        def action() -> None:
            now = engine.now
            with _step("fault", now, fault=fault.kind, links=fault.links):
                if fault.kind in (FLAP_DOWN, BURST_DOWN):
                    for link_id in fault.links:
                        if not service.state.is_link_failed(link_id):
                            service.fail_link(link_id, reconfigure=True)
                elif fault.kind == REGIONAL_DOWN:
                    # The whole region dies at once: one activation round
                    # over the surviving spare (simultaneous semantics),
                    # not a per-link cascade.
                    fresh = [
                        link_id
                        for link_id in fault.links
                        if not service.state.is_link_failed(link_id)
                    ]
                    if fresh:
                        service.fail_link_set(fresh, reconfigure=True)
                elif fault.kind in (FLAP_UP, BURST_UP, REGIONAL_UP):
                    for link_id in fault.links:
                        if service.state.is_link_failed(link_id):
                            service.repair_link(link_id)
                elif fault.kind == STALENESS:
                    service.database.inject_staleness()
                elif fault.kind == REFRESH:
                    service.database.refresh()
            report.faults_injected[fault.kind] = (
                report.faults_injected.get(fault.kind, 0) + 1
            )
            # The campaign's core guarantee: no injected fault may ever
            # corrupt the cross-layer resource accounting.
            service.check_invariants()
            report.invariant_checks += 1
            # Failures can strand survivors unprotected (spare shortage
            # during reconfiguration); queue them for re-protection.
            for connection_id in service.unprotected_ids():
                if service.queue_backup_reestablishment(connection_id):
                    start_waiting(connection_id, now)
            sweep_waiting(now)

        return action

    for fault in injector.schedule(
        network, config.duration, risk_groups=risk_groups
    ):
        if fault.time < config.duration:
            engine.schedule(fault.time, apply_fault(fault))

    # -- residual-unprotection sampling -----------------------------------
    def sample() -> None:
        report.unprotected_samples.append(
            (
                engine.now,
                len(service.unprotected_ids()),
                service.active_connection_count,
            )
        )

    for index in range(config.unprotected_samples):
        time = config.duration * (index + 1) / config.unprotected_samples
        engine.schedule(min(time, config.duration), sample)

    engine.run(until=config.duration)

    # -- settle: adversity over, drain the re-protection queue ------------
    sweep_waiting(config.duration)
    if config.settle and waiting_since:
        with _step("settle", config.duration):
            for link_id in sorted(service.state.failed_links()):
                service.repair_link(link_id)
            service.database.refresh()
            progress = True
            while progress and waiting_since:
                progress = False
                for connection_id in sorted(waiting_since):
                    if not service.has_connection(connection_id):
                        resolve(connection_id, _DEPARTED, config.duration)
                        progress = True
                    elif service.reestablish_backup(connection_id):
                        resolve(connection_id, _REPROTECTED, config.duration)
                        progress = True
            service.check_invariants()
            report.invariant_checks += 1

    # -- fill the report --------------------------------------------------
    report.absorb_counters(service.counters.to_dict())
    report.final_active = service.active_connection_count
    report.degraded_reprotected = sum(
        1
        for connection_id in degraded_admitted
        if first_outcome.get(connection_id) == _REPROTECTED
    )
    report.degraded_departed_unprotected = sum(
        1
        for connection_id in degraded_admitted
        if first_outcome.get(connection_id) == _DEPARTED
    )
    report.degraded_unresolved = (
        len(degraded_admitted)
        - report.degraded_reprotected
        - report.degraded_departed_unprotected
    )
    return report
