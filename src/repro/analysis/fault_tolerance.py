"""Fault-tolerance measurement — the paper's ``P_act-bk`` (Figure 4).

"``P_act-bk`` is the probability of activating a backup channel when
the corresponding primary channel is disabled by a single link
failure."  At every steady-state snapshot the observer sweeps *every*
link that carries at least one primary, asks the recovery engine which
affected connections would successfully activate their backups, and
aggregates: ``P_act-bk = total successes / total attempts``.

The sweep is exhaustive rather than sampled — each hypothetical
failure is assessed analytically against the live spare state, with
zero estimation variance given the snapshot.  It is not free: one
Figure-4 cell asks several thousand what-if questions, and filtering
the whole connection table for each would dominate the cell's run time
(``analysis.ft_share`` in the ``benchmarks/e2e`` ledger watches it).
Every observer here therefore asks the service, which hands the
recovery engine only the connections whose primary crosses the failed
links (the primary-incidence index of
:class:`repro.core.store.ConnectionStore`), so a sweep costs O(sum of
affected) rather than O(links x connections).

The single-link sweep is one call,
:meth:`~repro.core.service.DRTPService.sweep_link_failures`: it reads
every link's activation pool once per snapshot into one column (spare,
plus free bandwidth under the ablation), and each link's race debits
its own copy of that column, so no failure sees another's winners.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from ..core.recovery import FailureImpact, assess_group_failure
from ..core.service import DRTPService
from ..routing.reactive import assess_reactive_recovery
from ..simulation.simulator import Observer
from ..topology.srlg import RiskGroupSet


@dataclass
class FaultToleranceStats:
    """Aggregated single-link-failure recovery statistics."""

    attempts: int = 0
    successes: int = 0
    failures_by_reason: Dict[str, int] = field(default_factory=dict)
    links_swept: int = 0
    snapshots: int = 0

    @property
    def p_act_bk(self) -> float:
        """The headline fault-tolerance probability.  1.0 when no
        primary was ever at risk (vacuously fault-tolerant)."""
        if self.attempts == 0:
            return 1.0
        return self.successes / self.attempts

    def absorb(self, impact: FailureImpact) -> None:
        # A success is ``activated`` or ``rerouted``, never a failure
        # reason, so only the losers are tallied by reason.
        outcomes = impact.outcomes
        failures = self.failures_by_reason
        successes = 0
        for outcome in outcomes:
            if outcome.success:
                successes += 1
            else:
                failures[outcome.reason] = failures.get(outcome.reason, 0) + 1
        self.attempts += len(outcomes)
        self.successes += successes

    def merge(self, other: "FaultToleranceStats") -> None:
        self.attempts += other.attempts
        self.successes += other.successes
        self.links_swept += other.links_swept
        self.snapshots += other.snapshots
        for reason, count in other.failures_by_reason.items():
            self.failures_by_reason[reason] = (
                self.failures_by_reason.get(reason, 0) + count
            )


class FaultToleranceObserver(Observer):
    """Snapshot observer running the exhaustive failure sweep.

    Args:
        use_free_bandwidth: Let activations draw on unallocated
            bandwidth too (ablation; the paper's ``SC`` counts spare
            only).
    """

    def __init__(self, use_free_bandwidth: bool = False) -> None:
        self.stats = FaultToleranceStats()
        self.use_free_bandwidth = use_free_bandwidth

    def on_snapshot(self, service: DRTPService, time: float) -> None:
        stats = self.stats
        stats.snapshots += 1
        for _link_id, impact in service.sweep_link_failures(
            self.use_free_bandwidth
        ):
            stats.links_swept += 1
            stats.absorb(impact)


class GroupFaultToleranceObserver(Observer):
    """Exhaustive *risk-group* failure sweep — ``P_act-bk^(g)``.

    At every snapshot, every shared-risk group containing at least one
    link that carries a primary is hypothetically cut (all member
    links at once) and the affected connections race for spare in a
    single activation round.  The aggregate success ratio generalizes
    the paper's single-link ``P_act-bk`` to correlated failures; with
    singleton groups the two sweeps visit the same failure sites and
    agree exactly.

    The sweep is measure-only: the risk groups passed here need *not*
    be installed in the service's network state, which lets an
    experiment score an SRLG-blind scheme against the same correlated
    threat model an SRLG-aware scheme was routed under.

    Args:
        risk_groups: The SRLG assignment defining the failure domains.
            ``None`` reads the service's installed assignment at sweep
            time (and raises if there is none).
        use_free_bandwidth: As in :class:`FaultToleranceObserver`.
    """

    def __init__(
        self,
        risk_groups: Optional[RiskGroupSet] = None,
        use_free_bandwidth: bool = False,
    ) -> None:
        self.stats = FaultToleranceStats()
        self.risk_groups = risk_groups
        self.use_free_bandwidth = use_free_bandwidth

    def on_snapshot(self, service: DRTPService, time: float) -> None:
        groups = self.risk_groups
        if groups is None:
            groups = service.risk_groups
        if groups is None:
            raise ValueError(
                "GroupFaultToleranceObserver needs a RiskGroupSet: pass "
                "one or install risk groups on the service"
            )
        self.stats.snapshots += 1
        at_risk = set()
        for link_id in service.links_carrying_primaries():
            at_risk.add(groups.group_of(link_id))
        for group_id in sorted(at_risk):
            members = groups.members(group_id)
            impact = assess_group_failure(
                service.state,
                service.connections_crossing(members),
                group_id,
                groups,
                use_free_bandwidth=self.use_free_bandwidth,
            )
            self.stats.links_swept += len(members)
            self.stats.absorb(impact)


class ReactiveRecoveryObserver(Observer):
    """Same sweep, but recovery is reactive re-routing on free
    bandwidth (the Section 1 baseline) instead of backup activation."""

    def __init__(self) -> None:
        self.stats = FaultToleranceStats()

    def on_snapshot(self, service: DRTPService, time: float) -> None:
        self.stats.snapshots += 1
        for link_id in service.links_carrying_primaries():
            impact = assess_reactive_recovery(
                service.network,
                service.state,
                service.connections_crossing((link_id,)),
                link_id,
            )
            self.stats.links_swept += 1
            self.stats.absorb(impact)
