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

The workload replays on
:class:`~repro.simulation.simulator.ScenarioSimulator`, with the
campaign as an observer and event source; it settles afterwards.
Tracing: the runner takes no collector.  Under an open ``chaos.campaign``
span (``repro chaos --trace-dir``), every action runs in a
``chaos.arrive`` / ``depart`` child (the loop's) or ``chaos.retry`` /
``fault`` / ``settle`` child (the campaign's), each from
:func:`~repro.simulation.simulator.step_span` with the simulated
``time``; the service spans it causes nest under that child.  With no
span open it runs untraced.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Dict, Optional

from ..analysis.chaos_report import ChaosReport
from ..core.multiplexing import GroupAwareSparePolicy
from ..core.service import DRTPService
from ..simulation.arrivals import HoldingTimeDistribution
from ..simulation.rng import derive_seed
from ..simulation.scenario import generate_scenario
from ..simulation.simulator import Observer, ScenarioSimulator, step_span
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


class _Campaign(Observer):
    """The campaign's side of the replay: it injects the faults, takes
    the residual-unprotection samples (the replay's snapshots) and
    retries each connection waiting for re-protection.

    ``waiting_since`` maps each waiting connection to the time it
    became unprotected.  ``first_outcome`` has a key for each
    connection *admitted* degraded (the set the headline recovery
    ratio is over), ``None`` until its first wait resolves.  A
    connection can wait more than once (a later failure may strip a
    regained backup) — every wait is retried and timed, but the ratio
    counts first outcomes.
    """

    def __init__(self, service: DRTPService, config: CampaignConfig,
                 faults, report: ChaosReport) -> None:
        self.service, self.config = service, config
        self.faults, self.report = faults, report
        self.waiting_since: Dict[int, float] = {}
        self.first_outcome: Dict[int, Optional[str]] = {}

    def on_start(self, engine) -> None:
        self.engine = engine
        for fault in self.faults:
            if fault.time < self.config.duration:
                engine.schedule(fault.time, partial(self._apply_fault, fault))

    def on_snapshot(self, service, time) -> None:
        self.report.unprotected_samples.append(
            (time, len(service.unprotected_ids()),
             service.active_connection_count)
        )

    def on_admission(self, service, request, decision, seconds) -> None:
        if decision.accepted and decision.degraded:
            self.first_outcome[request.request_id] = None
            self._start_waiting(request.request_id, self.engine.now)

    def on_departure(self, service, request) -> None:
        self._resolve(request.request_id, _DEPARTED, self.engine.now)

    def _resolve(self, connection_id: int, outcome: str, now: float) -> None:
        since = self.waiting_since.pop(connection_id, None)
        if since is None:
            return
        # Only a degraded admission's still-open first outcome is None.
        if self.first_outcome.get(connection_id, outcome) is None:
            self.first_outcome[connection_id] = outcome
        if outcome == _REPROTECTED:
            self.report.recovery_latencies.append(now - since)

    def sweep_waiting(self, now: float) -> None:
        """Settle any waiting connection whose fate changed sideways:
        re-protected by failure reconfiguration, or gone."""
        service = self.service
        for connection_id in list(self.waiting_since):
            conn = (service.connection(connection_id)
                    if service.has_connection(connection_id) else None)
            if conn is None or not conn.is_active:
                self._resolve(connection_id, _DEPARTED, now)
            elif conn.backup is not None:
                self._resolve(connection_id, _REPROTECTED, now)

    def _start_waiting(self, connection_id: int, now: float) -> None:
        if connection_id not in self.waiting_since:
            self.waiting_since[connection_id] = now
            self.engine.schedule_after(
                self.config.backup_retry_interval,
                partial(self._retry, connection_id),
            )

    def _retry(self, connection_id: int) -> None:
        engine, service = self.engine, self.service
        now = engine.now
        if not service.has_connection(connection_id):
            self._resolve(connection_id, _DEPARTED, now)
            return
        with step_span("retry", now):
            restored = service.reestablish_backup(connection_id)
        interval = self.config.backup_retry_interval
        if restored:
            self._resolve(connection_id, _REPROTECTED, now)
        elif now + interval <= self.config.duration:
            engine.schedule_after(
                interval, partial(self._retry, connection_id)
            )

    def _apply_fault(self, fault) -> None:
        service, report = self.service, self.report
        now = self.engine.now
        with step_span("fault", now, fault=fault.kind, links=fault.links):
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
                self._start_waiting(connection_id, now)
        self.sweep_waiting(now)

    def settle(self) -> None:
        """Adversity over: repair every link, re-flood, and drain the
        re-protection queue."""
        service, duration = self.service, self.config.duration
        with step_span("settle", duration):
            for link_id in sorted(service.state.failed_links()):
                service.repair_link(link_id)
            service.database.refresh()
            progress = True
            while progress and self.waiting_since:
                progress = False
                for connection_id in sorted(self.waiting_since):
                    if not service.has_connection(connection_id):
                        self._resolve(connection_id, _DEPARTED, duration)
                        progress = True
                    elif service.reestablish_backup(connection_id):
                        self._resolve(connection_id, _REPROTECTED, duration)
                        progress = True
            service.check_invariants()
            self.report.invariant_checks += 1


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
    campaign = _Campaign(
        service, config,
        injector.schedule(network, config.duration, risk_groups=risk_groups),
        report,
    )
    ScenarioSimulator(
        service, scenario, warmup=0.0,
        snapshot_count=config.unprotected_samples,
    ).run(observers=(campaign,))
    campaign.sweep_waiting(config.duration)
    if config.settle and campaign.waiting_since:
        campaign.settle()

    # -- fill the report --------------------------------------------------
    outcomes = list(campaign.first_outcome.values())
    report.absorb_counters(service.counters.to_dict())
    report.final_active = service.active_connection_count
    report.degraded_reprotected = outcomes.count(_REPROTECTED)
    report.degraded_departed_unprotected = outcomes.count(_DEPARTED)
    report.degraded_unresolved = outcomes.count(None)
    return report
