"""Risk analysis: where would a failure hurt the most?

The paper's metric aggregates over all single failures; an operator
deploying DRTP also wants the *disaggregated* view: which links are
load-bearing, which connections are effectively unprotected, and how
much headroom each spare pool has.  These reports read the same
assessment machinery the metrics use.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..core.recovery import assess_failed_links
from ..core.service import DRTPService
from ..simulation.simulator import Observer


@dataclass(frozen=True)
class LinkRisk:
    """One link's failure blast radius."""

    link_id: int
    src: int
    dst: int
    primaries_crossing: int
    would_recover: int
    would_fail: int
    failure_reasons: Tuple[Tuple[str, int], ...]

    @property
    def recovery_ratio(self) -> float:
        total = self.would_recover + self.would_fail
        if total == 0:
            return 1.0
        return self.would_recover / total


def rank_link_risks(
    service: DRTPService, top: Optional[int] = None
) -> List[LinkRisk]:
    """Every primary-carrying link's failure impact, worst first.

    Ordering: most stranded connections first, then most affected.
    """
    risks: List[LinkRisk] = []
    for link_id, impact in service.sweep_link_failures():
        link = service.network.link(link_id)
        reasons = tuple(
            sorted(
                (reason, count)
                for reason, count in impact.reasons().items()
                if reason != "activated"
            )
        )
        risks.append(
            LinkRisk(
                link_id=link_id,
                src=link.src,
                dst=link.dst,
                primaries_crossing=impact.affected,
                would_recover=impact.activated,
                would_fail=impact.failed,
                failure_reasons=reasons,
            )
        )
    risks.sort(key=lambda r: (-r.would_fail, -r.primaries_crossing, r.link_id))
    return risks[:top] if top is not None else risks


@dataclass(frozen=True)
class ConnectionExposure:
    """How exposed one connection is to single link failures."""

    connection_id: int
    primary_hops: int
    backup_count: int
    unrecoverable_links: Tuple[int, ...]

    @property
    def exposure(self) -> float:
        """Fraction of the primary's links whose failure strands the
        connection; 0.0 = fully protected against any single failure."""
        if self.primary_hops == 0:
            return 0.0
        return len(self.unrecoverable_links) / self.primary_hops


def connection_exposures(service: DRTPService) -> List[ConnectionExposure]:
    """Per-connection single-failure exposure, most exposed first.

    A primary link is *unrecoverable* for a connection when the
    connection's activation would fail if exactly that link failed
    (spare contention included, in establishment order — the same
    semantics as the fault-tolerance metric).
    """
    impact_cache: Dict[int, Dict[int, bool]] = {
        link_id: {
            outcome.connection_id: outcome.success
            for outcome in impact.outcomes
        }
        for link_id, impact in service.sweep_link_failures()
    }
    exposures = []
    for conn in service.connections():
        if not conn.is_active:
            continue
        bad = tuple(
            link_id
            for link_id in conn.primary_route.link_ids
            if not impact_cache.get(link_id, {}).get(conn.connection_id, True)
        )
        exposures.append(
            ConnectionExposure(
                connection_id=conn.connection_id,
                primary_hops=conn.primary_route.hop_count,
                backup_count=conn.backup_count,
                unrecoverable_links=bad,
            )
        )
    exposures.sort(key=lambda e: (-e.exposure, e.connection_id))
    return exposures


@dataclass(frozen=True)
class DoubleFailureStats:
    """Fault tolerance under two (near-)simultaneous link failures.

    The paper's fault model assumes "only a single link can fail
    between two successive recovery actions"; this report quantifies
    what that assumption is worth by assessing link *pairs*.
    """

    pairs_assessed: int
    attempts: int
    successes: int

    @property
    def p_act_bk(self) -> float:
        if self.attempts == 0:
            return 1.0
        return self.successes / self.attempts


class DoubleFailureObserver(Observer):
    """Snapshot observer sampling link-pair failures (the
    fault-model-violation study)."""

    def __init__(self, max_pairs_per_snapshot: int = 200, seed: int = 0):
        import random as random_module

        self._max_pairs = max_pairs_per_snapshot
        self._rng = random_module.Random(seed)
        self.pairs_assessed = 0
        self.attempts = 0
        self.successes = 0

    def on_snapshot(self, service: DRTPService, time: float) -> None:
        stats = assess_double_failures(
            service, max_pairs=self._max_pairs, rng=self._rng
        )
        self.pairs_assessed += stats.pairs_assessed
        self.attempts += stats.attempts
        self.successes += stats.successes

    @property
    def p_act_bk(self) -> float:
        if self.attempts == 0:
            return 1.0
        return self.successes / self.attempts


def assess_double_failures(
    service: DRTPService,
    max_pairs: int = 500,
    rng=None,
) -> DoubleFailureStats:
    """Sample pairs of primary-carrying links failing together.

    Exhaustive pair enumeration is O(L²); ``max_pairs`` samples
    uniformly without replacement when the population is larger (pass
    a seeded ``random.Random`` for reproducibility).
    """
    import itertools
    import random as random_module

    links = service.links_carrying_primaries()
    pairs = list(itertools.combinations(links, 2))
    if len(pairs) > max_pairs:
        rng = rng or random_module.Random(0)
        pairs = rng.sample(pairs, max_pairs)
    attempts = successes = 0
    for a, b in pairs:
        impact = assess_failed_links(
            service.state,
            service.connections_crossing((a, b)),
            frozenset({a, b}),
        )
        attempts += impact.affected
        successes += impact.activated
    return DoubleFailureStats(
        pairs_assessed=len(pairs), attempts=attempts, successes=successes
    )
