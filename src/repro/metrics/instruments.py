"""DRTP metric families and their binding into the service.

:class:`ServiceMetrics` declares every family the control plane
exposes and keeps none of the counts itself: the service tallies each
event once, on its :class:`~repro.core.service.ServiceCounters` (the
connection store and the link-state database keep their own), and
:meth:`ServiceMetrics.bind_service` points every counter and gauge at
those objects, to be read when the registry is scraped — so a scrape,
``status``, the manifest and a chaos report cannot disagree.

The latency histograms are the exception, because nobody else keeps a
distribution: :meth:`ServiceMetrics.observe_admission` and
:meth:`ServiceMetrics.observe_recovery` are the event-time writes,
called by :meth:`~repro.core.service.DRTPService.admit` and at the end
of every applied failure.
"""

from __future__ import annotations

from functools import partial
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
        self.exhaustive_settled = registry.counter(
            "drtp_route_exhaustive_settled_total",
            "nodes the two-ended exhaustive Dijkstra settled, both sides, "
            "summed over the link-state searches it ran for",
            labels=("search",),
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
            "drtp_link_failures_total",
            "failure events applied via the service (a node or a "
            "risk group is one event; drtp_links_down has the level)",
        )
        self.link_repairs = registry.counter(
            "drtp_link_repairs_total",
            "failed links returned to service (repairing a healthy "
            "link counts nothing)",
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
        self.recovery_latency = registry.histogram(
            "drtp_recovery_seconds",
            "wall-clock time from the start of an applied failure to the "
            "end of its re-protection wave (activation + reconfiguration)",
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

        # -- levels ---------------------------------------------------
        self.links_down = registry.gauge(
            "drtp_links_down", "links currently failed",
        )
        self.connections_high_water = registry.gauge(
            "drtp_connections_high_water",
            "most connections the store ever held at once",
        )
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
        self.db_refreshes = registry.counter(
            "drtp_db_refreshes_total", "link-state database re-floods",
        )
        self.db_links_rescanned = registry.counter(
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
        """Point every counter and gauge at a live service: each is
        read from the object that owns the count when scraped."""
        scheme = service.scheme.name
        counters = service.counters
        database = service.database
        for family, owner, tally in (
            (self.degraded_admissions, counters, "degraded_admissions"),
            (self.signaling_walks, counters, "signaling_walks"),
            (self.signaling_hops, counters, "signaling_hops"),
            (self.signaling_retries, counters, "signaling_retries"),
            (self.signaling_drops, counters, "signaling_drops"),
            (self.signaling_duplicates, counters, "signaling_duplicates"),
            (self.signaling_crashes, counters, "signaling_crashes"),
            (self.signaling_gave_up, counters, "signaling_gave_up"),
            (self.link_failures, counters, "failure_events"),
            (self.link_repairs, counters, "links_repaired"),
            (self.reestablish_attempts, counters, "reestablish_attempts"),
            (self.reestablished, counters, "backups_reestablished"),
            (self.group_failures, counters, "group_failures"),
            (self.group_failed_links, counters, "group_failed_links"),
            (self.db_refreshes, database, "refreshes"),
            (self.db_links_rescanned, database, "links_rescanned"),
        ):
            family.collect_with(partial(getattr, owner, tally))
        for family, tally in (
            (self.admissions, "accepted"),
            (self.releases, "released"),
            # One plan() per request: admit is the only caller.
            (self.plans, "requests"),
            (self.plan_candidates, "plan_candidates"),
            (self.acceptance_ratio, "acceptance_ratio"),
        ):
            family.collect_with(
                lambda tally=tally: {(scheme,): getattr(counters, tally)}
            )
        self.rejections.collect_with(lambda: {
            (scheme, reason): count
            for reason, count in counters.rejected.items()
        })
        self.route_searches.collect_with(lambda: counters.searches)
        self.exhaustive_settled.collect_with(lambda: {
            (search,): settled
            for search, settled in counters.exhaustive_settled.items()
        })
        for family, outcomes in (
            (self.recoveries, counters.recovery_outcomes),
            (self.group_recoveries, counters.group_recovery_outcomes),
        ):
            family.collect_with(lambda outcomes=outcomes: {
                (reason,): count for reason, count in outcomes.items()
            })

        self.active_connections.collect_with(
            lambda: service.active_connection_count
        )
        self.unprotected_connections.collect_with(
            lambda: len(service.unprotected_ids())
        )
        self.reestablish_queue_depth.collect_with(
            lambda: len(service.pending_backup_ids())
        )
        self.links_down.collect_with(
            lambda: len(service.state.failed_links())
        )
        self.connections_high_water.collect_with(
            lambda: service.connection_store_stats()["high_water"]
        )
        self.db_dirty_links.collect_with(
            lambda: len(database.dirty_links())
        )
        return self

    # ------------------------------------------------------------------
    # The event-time writes
    # ------------------------------------------------------------------
    def observe_admission(self, seconds: float, plan_seconds: float) -> None:
        """One ``admit()`` finished: its wall-clock time and the part
        of it the routing scheme's ``plan()`` took."""
        self.admission_latency.observe(seconds)
        self.plan_latency.observe(plan_seconds)

    def observe_recovery(self, seconds: float) -> None:
        """One applied failure finished recovering: the wall-clock time
        from its start to the end of its re-protection wave."""
        self.recovery_latency.observe(seconds)
