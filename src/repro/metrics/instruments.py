"""DRTP metric families and their binding into the service.

:class:`ServiceMetrics` owns every metric the control plane exposes
and is the single object threaded through the instrumented layers:

* :mod:`repro.core.service` records admissions, rejections (by
  reason), releases, admission latency, failures/repairs and backup
  re-establishment attempts;
* :mod:`repro.core.signaling` records register-walk outcomes (walks,
  retries, drops, duplicates, crashes, hops, give-ups);
* :mod:`repro.routing.base` records planning calls, planning latency
  and candidate-route counts per scheme;
* :mod:`repro.routing.link_state` records, per primary and backup
  search, which step of the search answered it.

Derived values the service already tracks — active connections, the
backup re-establishment queue depth, the acceptance ratio, the
link-state database's refresh/rescan counters — are exported as
collect-on-scrape gauges so they are always exact and never need a
second bookkeeping path.
"""

from __future__ import annotations

from typing import Optional

from .registry import MetricsRegistry

__all__ = ["ServiceMetrics"]


class ServiceMetrics:
    """The DRTP metric families over one :class:`MetricsRegistry`."""

    def __init__(self, registry: Optional[MetricsRegistry] = None) -> None:
        registry = registry if registry is not None else MetricsRegistry()
        self.registry = registry

        # -- admission ------------------------------------------------
        self.admissions = registry.counter(
            "drtp_admissions_total",
            "DR-connection requests admitted", labels=("scheme",),
        )
        self.rejections = registry.counter(
            "drtp_rejections_total",
            "DR-connection requests rejected", labels=("scheme", "reason"),
        )
        self.releases = registry.counter(
            "drtp_releases_total",
            "DR-connections released by their owner", labels=("scheme",),
        )
        self.degraded_admissions = registry.counter(
            "drtp_degraded_admissions_total",
            "admissions that entered service unprotected under faults",
        )
        self.admission_latency = registry.histogram(
            "drtp_admission_latency_seconds",
            "wall-clock time of one admit() call (plan + reserve + signal)",
        )

        # -- routing --------------------------------------------------
        self.plans = registry.counter(
            "drtp_route_plans_total",
            "routing-scheme plan() invocations", labels=("scheme",),
        )
        self.plan_latency = registry.histogram(
            "drtp_route_plan_seconds",
            "wall-clock time of one routing plan() call",
        )
        self.plan_candidates = registry.counter(
            "drtp_route_candidates_total",
            "candidate routes considered by plan()", labels=("scheme",),
        )
        self.route_searches = registry.counter(
            "drtp_route_searches_total",
            "link-state route searches by the step that answered them "
            "(probe: first hop-bounded pass; bounded: second pass at the "
            "two-ended distance; exhaustive: full Dijkstra; none: no route)",
            labels=("search", "answer"),
        )

        # -- signaling ------------------------------------------------
        self.signaling_walks = registry.counter(
            "drtp_signaling_walks_total",
            "backup-path register walks attempted",
        )
        self.signaling_hops = registry.counter(
            "drtp_signaling_hops_total",
            "register-packet hops processed (including retries)",
        )
        self.signaling_retries = registry.counter(
            "drtp_signaling_retries_total",
            "register walks retransmitted after an injected fault",
        )
        self.signaling_drops = registry.counter(
            "drtp_signaling_drops_total", "register packets dropped",
        )
        self.signaling_duplicates = registry.counter(
            "drtp_signaling_duplicates_total",
            "register packets delivered twice",
        )
        self.signaling_crashes = registry.counter(
            "drtp_signaling_crashes_total", "router crashes mid-walk",
        )
        self.signaling_gave_up = registry.counter(
            "drtp_signaling_gave_up_total",
            "register walks that exhausted their retry budget",
        )

        # -- recovery -------------------------------------------------
        self.link_failures = registry.counter(
            "drtp_link_failures_total", "links failed via the service",
        )
        self.link_repairs = registry.counter(
            "drtp_link_repairs_total", "links repaired via the service",
        )
        self.recoveries = registry.counter(
            "drtp_recovery_outcomes_total",
            "backup-activation outcomes after applied failures",
            labels=("outcome",),
        )
        self.reestablish_attempts = registry.counter(
            "drtp_backup_reestablish_attempts_total",
            "background backup re-establishment attempts",
        )
        self.reestablished = registry.counter(
            "drtp_backups_reestablished_total",
            "backups restored by background re-establishment",
        )

        # -- correlated (shared-risk) failures ------------------------
        self.group_failures = registry.counter(
            "drtp_group_failures_total",
            "correlated multi-link failure events (risk-group cuts and "
            "regional bursts) applied via the service",
        )
        self.group_failed_links = registry.counter(
            "drtp_group_failed_links_total",
            "links taken down by correlated failure events",
        )
        self.group_recoveries = registry.counter(
            "drtp_group_recovery_outcomes_total",
            "backup-activation outcomes after correlated failures",
            labels=("outcome",),
        )

        # -- collected gauges (bound to a service later) ---------------
        self.active_connections = registry.gauge(
            "drtp_active_connections", "currently established DR-connections",
        )
        self.unprotected_connections = registry.gauge(
            "drtp_unprotected_connections",
            "active DR-connections running without a backup",
        )
        self.reestablish_queue_depth = registry.gauge(
            "drtp_backup_reestablish_queue_depth",
            "connections queued for background backup re-establishment",
        )
        self.acceptance_ratio = registry.gauge(
            "drtp_acceptance_ratio",
            "accepted / requested over the service lifetime",
            labels=("scheme",),
        )
        self.db_refreshes = registry.gauge(
            "drtp_db_refreshes_total", "link-state database re-floods",
        )
        self.db_links_rescanned = registry.gauge(
            "drtp_db_links_rescanned_total",
            "per-link record rebuilds (conflict-vector rescans) during "
            "refreshes",
        )
        self.db_dirty_links = registry.gauge(
            "drtp_db_dirty_links",
            "links awaiting re-advertisement at the next refresh",
        )

    # ------------------------------------------------------------------
    # Binding
    # ------------------------------------------------------------------
    def bind_service(self, service) -> "ServiceMetrics":
        """Point the collected gauges at a live service."""
        scheme = service.scheme.name
        self.active_connections.collect_with(
            lambda: service.active_connection_count
        )
        self.unprotected_connections.collect_with(
            lambda: len(service.unprotected_ids())
        )
        self.reestablish_queue_depth.collect_with(
            lambda: len(service.pending_backup_ids())
        )
        self.acceptance_ratio.collect_with(
            lambda: {(scheme,): service.counters.acceptance_ratio}
        )
        self.db_refreshes.collect_with(lambda: service.database.refreshes)
        self.db_links_rescanned.collect_with(
            lambda: service.database.links_rescanned
        )
        self.db_dirty_links.collect_with(
            lambda: len(service.database.dirty_links())
        )
        return self

    # ------------------------------------------------------------------
    # Recording hooks (called from the instrumented layers)
    # ------------------------------------------------------------------
    def observe_admission(self, scheme: str, decision, seconds: float) -> None:
        self.admission_latency.observe(seconds)
        if decision.accepted:
            self.admissions.inc(1, scheme)
            if decision.degraded:
                self.degraded_admissions.inc()
        else:
            self.rejections.inc(1, scheme, decision.reason)

    def observe_release(self, scheme: str) -> None:
        self.releases.inc(1, scheme)

    def observe_plan(self, scheme: str, plan, seconds: float) -> None:
        self.plans.inc(1, scheme)
        self.plan_latency.observe(seconds)
        self.plan_candidates.inc(plan.candidates_considered, scheme)

    def observe_search(self, search: str, answer: str) -> None:
        self.route_searches.inc(1, search, answer)

    def observe_signaling(self, registration) -> None:
        self.signaling_walks.inc()
        self.signaling_hops.inc(registration.hops_signaled)
        self.signaling_retries.inc(registration.retries)
        self.signaling_drops.inc(registration.drops)
        self.signaling_duplicates.inc(registration.duplicates)
        self.signaling_crashes.inc(registration.crashes)
        if registration.gave_up:
            self.signaling_gave_up.inc()

    def observe_failure(self, impact) -> None:
        self.link_failures.inc()
        for outcome in impact.outcomes:
            self.recoveries.inc(1, outcome.reason)

    def observe_group_failure(self, impact, links: int) -> None:
        """One correlated multi-link failure event (a risk-group cut or
        a regional neighborhood burst) was applied; ``observe_failure``
        is still called separately so the aggregate recovery families
        include these events too."""
        self.group_failures.inc()
        self.group_failed_links.inc(links)
        for outcome in impact.outcomes:
            self.group_recoveries.inc(1, outcome.reason)

    def observe_repair(self, links: int = 1) -> None:
        self.link_repairs.inc(links)

    def observe_reestablish(self, restored: bool) -> None:
        self.reestablish_attempts.inc()
        if restored:
            self.reestablished.inc()
