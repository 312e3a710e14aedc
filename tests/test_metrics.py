"""Tests for the dependency-free metrics package.

Covers the registry primitives (counters, gauges, histograms, error
cases), the Prometheus text renderer together with the in-repo
line-format validator, and the ServiceMetrics instrumentation wired
through a live DRTPService — including the four families the online
control plane is required to expose (admissions total, rejections by
reason, admission latency histogram, backup re-establishment queue
depth).
"""

import math
import random

import pytest

from repro.metrics import (
    MetricsError,
    MetricsRegistry,
    ServiceMetrics,
    parse_prometheus_text,
)
from repro.metrics.registry import DEFAULT_BUCKETS
from repro.metrics.textformat import PrometheusFormatError
from repro.core import DRTPService
from repro.faults import FaultInjector, FaultPlan, RetryPolicy, SignalingFaults
from repro.kernels.search import ANSWERS
from repro.routing import (
    DLSRScheme,
    NoBackupScheme,
    RandomBackupScheme,
    ReactiveScheme,
)
from repro.topology import mesh_network


class TestCounter:
    def test_starts_at_zero_and_accumulates(self):
        registry = MetricsRegistry()
        counter = registry.counter("jobs_total", "jobs")
        assert counter.total() == 0.0
        counter.inc()
        counter.inc(2.5)
        assert counter.value() == pytest.approx(3.5)

    def test_negative_increment_rejected(self):
        counter = MetricsRegistry().counter("jobs_total", "jobs")
        with pytest.raises(MetricsError):
            counter.inc(-1)

    def test_labeled_counter_tracks_series_independently(self):
        registry = MetricsRegistry()
        counter = registry.counter(
            "ops_total", "ops", labels=("op", "status")
        )
        counter.inc(1, "admit", "ok")
        counter.inc(2, "admit", "ok")
        counter.inc(5, "release", "ok")
        assert counter.value("admit", "ok") == pytest.approx(3.0)
        assert counter.value("release", "ok") == pytest.approx(5.0)
        assert counter.value("admit", "error") == 0.0
        assert counter.total() == pytest.approx(8.0)

    def test_wrong_label_arity_rejected(self):
        counter = MetricsRegistry().counter(
            "ops_total", "ops", labels=("op",)
        )
        with pytest.raises(MetricsError):
            counter.inc(1)
        with pytest.raises(MetricsError):
            counter.inc(1, "admit", "extra")


class TestGauge:
    def test_set_inc_dec(self):
        gauge = MetricsRegistry().gauge("depth", "queue depth")
        gauge.set(10)
        gauge.inc(2)
        gauge.dec(5)
        assert gauge.value() == pytest.approx(7.0)

    def test_collector_is_read_on_every_scrape(self):
        box = {"n": 0}
        gauge = MetricsRegistry().gauge("depth", "queue depth")
        assert gauge.collect_with(lambda: box["n"]) is gauge
        assert gauge.value() == 0.0
        box["n"] = 42
        assert gauge.value() == 42.0

    def test_labeled_collector_returns_series_map(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("ratio", "per-scheme", labels=("scheme",))
        gauge.collect_with(lambda: {("P-LSR",): 0.75})
        text = registry.render_prometheus()
        families = parse_prometheus_text(text)
        samples = families["ratio"]["samples"]
        assert samples[0].labels == {"scheme": "P-LSR"}
        assert samples[0].value == pytest.approx(0.75)


class TestHistogram:
    def test_observe_updates_count_and_sum(self):
        histogram = MetricsRegistry().histogram("lat", "latency")
        for value in (0.001, 0.002, 0.3):
            histogram.observe(value)
        assert histogram.count == 3
        assert histogram.sum == pytest.approx(0.303)

    def test_quantile_semantics(self):
        histogram = MetricsRegistry().histogram(
            "lat", "latency", buckets=(1.0, 2.0, 4.0)
        )
        assert histogram.quantile(0.5) == 0.0  # empty
        for value in (0.5, 0.6, 3.0):
            histogram.observe(value)
        # Two of three observations land in the first bucket.
        assert histogram.quantile(0.5) == pytest.approx(1.0)
        assert histogram.quantile(1.0) == pytest.approx(4.0)
        histogram.observe(100.0)  # beyond the last finite bucket
        assert histogram.quantile(1.0) == math.inf
        with pytest.raises(MetricsError):
            histogram.quantile(1.5)

    def test_unsorted_buckets_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(MetricsError):
            registry.histogram("lat", "latency", buckets=(2.0, 1.0))

    def test_default_buckets_are_sorted(self):
        assert list(DEFAULT_BUCKETS) == sorted(DEFAULT_BUCKETS)


class TestRegistry:
    def test_get_or_create_returns_same_instrument(self):
        registry = MetricsRegistry()
        first = registry.counter("jobs_total", "jobs")
        second = registry.counter("jobs_total", "jobs")
        assert first is second
        assert len(registry) == 1
        assert "jobs_total" in registry
        assert registry.get("jobs_total") is first

    def test_kind_conflict_rejected(self):
        registry = MetricsRegistry()
        registry.counter("thing", "a thing")
        with pytest.raises(MetricsError):
            registry.gauge("thing", "now a gauge")

    def test_label_conflict_rejected(self):
        registry = MetricsRegistry()
        registry.counter("ops_total", "ops", labels=("op",))
        with pytest.raises(MetricsError):
            registry.counter("ops_total", "ops", labels=("op", "scheme"))
        with pytest.raises(MetricsError):
            registry.counter("ops_total", "ops")

    def test_bucket_conflict_rejected(self):
        registry = MetricsRegistry()
        first = registry.histogram("lat", "latency", buckets=(0.1, 1.0))
        with pytest.raises(MetricsError):
            registry.histogram("lat", "latency", buckets=(0.5, 5.0))
        # Same definition still gets-or-creates.
        assert registry.histogram(
            "lat", "latency", buckets=(0.1, 1.0)
        ) is first

    def test_unknown_name_rejected(self):
        with pytest.raises(MetricsError):
            MetricsRegistry().get("missing")

    def test_invalid_metric_names_rejected(self):
        registry = MetricsRegistry()
        for bad in ("", "9starts_with_digit", "has space", "has-dash"):
            with pytest.raises(MetricsError):
                registry.counter(bad, "bad")

    def test_snapshot_is_json_friendly(self):
        registry = MetricsRegistry()
        registry.counter("jobs_total", "jobs").inc(3)
        registry.gauge("depth", "depth").set(2)
        registry.histogram("lat", "latency").observe(0.01)
        snapshot = registry.snapshot()
        import json

        json.dumps(snapshot)  # must not raise
        assert snapshot["jobs_total"]["value"] == pytest.approx(3.0)


class TestPrometheusRendering:
    def test_rendered_output_parses_and_round_trips(self):
        registry = MetricsRegistry()
        counter = registry.counter(
            "ops_total", "operations", labels=("op",)
        )
        counter.inc(4, "admit")
        registry.gauge("depth", "queue depth").set(7)
        histogram = registry.histogram(
            "lat_seconds", "latency", buckets=(0.01, 0.1)
        )
        histogram.observe(0.005)
        histogram.observe(0.5)

        families = parse_prometheus_text(registry.render_prometheus())
        assert families["ops_total"]["type"] == "counter"
        assert families["depth"]["type"] == "gauge"
        assert families["lat_seconds"]["type"] == "histogram"

        buckets = [
            sample
            for sample in families["lat_seconds"]["samples"]
            if sample.name == "lat_seconds_bucket"
        ]
        assert [sample.labels["le"] for sample in buckets] == [
            "0.01", "0.1", "+Inf",
        ]
        assert [sample.value for sample in buckets] == [1.0, 1.0, 2.0]
        names = {
            sample.name for sample in families["lat_seconds"]["samples"]
        }
        assert "lat_seconds_sum" in names
        assert "lat_seconds_count" in names

    def test_empty_unlabeled_instruments_render_zero(self):
        registry = MetricsRegistry()
        registry.counter("jobs_total", "jobs")
        registry.gauge("depth", "depth")
        families = parse_prometheus_text(registry.render_prometheus())
        assert families["jobs_total"]["samples"][0].value == 0.0
        assert families["depth"]["samples"][0].value == 0.0

    def test_families_sorted_by_name(self):
        registry = MetricsRegistry()
        registry.counter("zeta_total", "z")
        registry.counter("alpha_total", "a")
        text = registry.render_prometheus()
        assert text.index("alpha_total") < text.index("zeta_total")

    def test_parser_rejects_malformed_documents(self):
        with pytest.raises(PrometheusFormatError):
            parse_prometheus_text("not a metric line !!!")
        with pytest.raises(PrometheusFormatError):
            parse_prometheus_text("orphan_sample 1")
        # A # HELP line alone does not type the family: a sample
        # without a preceding # TYPE is rejected even then.
        with pytest.raises(PrometheusFormatError):
            parse_prometheus_text("# HELP helped jobs\nhelped 1\n")
        with pytest.raises(PrometheusFormatError):
            parse_prometheus_text(
                "# TYPE h histogram\n"
                'h_bucket{le="1.0"} 2\n'
                'h_bucket{le="+Inf"} 1\n'  # not cumulative
                "h_sum 1\nh_count 1\n"
            )
        with pytest.raises(PrometheusFormatError):
            parse_prometheus_text(
                "# TYPE h histogram\n"
                'h_bucket{le="1.0"} 1\n'  # missing +Inf terminator
                "h_sum 1\nh_count 1\n"
            )


def instrumented_service():
    metrics = ServiceMetrics()
    net = mesh_network(4, 4, 10.0)
    service = DRTPService(net, DLSRScheme(), metrics=metrics)
    metrics.bind_service(service)
    return net, service, metrics


class TestServiceInstrumentation:
    """The four required families, recorded through a live service."""

    def test_admissions_and_latency_recorded(self):
        net, service, metrics = instrumented_service()
        for source in range(3):
            assert service.request(source, 15, 1.0).accepted
        assert metrics.admissions.value("D-LSR") == 3.0
        assert metrics.admission_latency.count == 3
        assert metrics.admission_latency.sum > 0.0

    def test_rejections_labeled_by_reason(self):
        net, service, metrics = instrumented_service()
        decision = service.request(0, 15, 100.0)  # exceeds capacity
        assert not decision.accepted
        assert metrics.rejections.value("D-LSR", decision.reason) == 1.0
        assert metrics.rejections.total() == 1.0

    def test_reestablish_queue_depth_tracks_service(self):
        net, service, metrics = instrumented_service()
        assert service.request(0, 15, 1.0).accepted
        conn = service.connection(0)
        service.fail_link(
            conn.backup_route.link_ids[0], reconfigure=False
        )
        if service.connection(0).backup is None:
            service.queue_backup_reestablishment(0)
            assert metrics.reestablish_queue_depth.value() == float(
                len(service.pending_backup_ids())
            )
            assert metrics.reestablish_queue_depth.value() >= 1.0

    def test_full_exposition_parses_with_required_families(self):
        net, service, metrics = instrumented_service()
        service.request(0, 15, 1.0)
        service.request(0, 15, 100.0)
        families = parse_prometheus_text(
            metrics.registry.render_prometheus()
        )
        for required in (
            "drtp_admissions_total",
            "drtp_rejections_total",
            "drtp_admission_latency_seconds",
            "drtp_backup_reestablish_queue_depth",
        ):
            assert required in families, required
        assert families["drtp_admission_latency_seconds"]["type"] == (
            "histogram"
        )

    def test_recovery_time_observed_once_per_applied_failure(self):
        """``drtp_recovery_seconds`` exists before any failure and gets
        one sample per applied failure, however many links it took
        down; a service without metrics observes nothing."""
        net, service, metrics = instrumented_service()
        latency = metrics.recovery_latency
        families = parse_prometheus_text(metrics.registry.render_prometheus())
        assert families["drtp_recovery_seconds"]["type"] == "histogram"
        assert latency.count == 0
        assert service.request(0, 15, 1.0).accepted
        service.fail_link(service.connection(0).primary_route.link_ids[0])
        service.fail_node(5)
        service.fail_link_set((1, 2, 3))
        assert latency.count == 3
        assert latency.sum > 0.0
        bare = DRTPService(net, DLSRScheme())
        assert bare.request(0, 15, 1.0).accepted
        bare.fail_link(bare.connection(0).primary_route.link_ids[0])
        assert latency.count == 3

    def test_route_searches_counted_by_the_step_that_answered(self):
        """One scrape says whether the searches' unit phase is
        answering or falling through to the exhaustive Dijkstra."""
        net, service, metrics = instrumented_service()
        assert service.request(0, 15, 1.0).accepted
        assert not service.request(0, 15, 100.0).accepted
        searches = metrics.route_searches
        assert searches.value("primary", "probe") == 1.0
        assert searches.value("primary", "none") == 1.0
        # The accepted request's one backup search, by whichever step.
        assert searches.total() == 3.0
        assert sum(
            searches.value("backup", answer) for answer in ANSWERS
        ) == 1.0
        assert (
            'drtp_route_searches_total{search="primary",answer="none"} 1'
            in metrics.registry.render_prometheus()
        )

    def test_exhaustive_settled_scraped_from_the_counters(self):
        """One scrape says how much graph the exhaustive step walked:
        the nodes it settled, both sides, per search kind — exactly
        the service's tally, and 0 while the unit phase answers."""
        net, service, metrics = instrumented_service()
        family = metrics.exhaustive_settled
        rng = random.Random(1)
        for _ in range(30):
            service.request(*rng.sample(range(16), 2), 1.0)
        counters = service.counters
        assert counters.searches.get(("backup", "exhaustive"), 0) > 0
        assert counters.exhaustive_settled["backup"] > 0
        assert "primary" not in counters.exhaustive_settled
        samples = {
            tuple(sample.labels.values()): sample.value
            for sample in parse_prometheus_text(
                metrics.registry.render_prometheus()
            )["drtp_route_exhaustive_settled_total"]["samples"]
        }
        assert samples == {
            ("backup",): counters.exhaustive_settled["backup"]
        }
        assert family.value("backup") == counters.exhaustive_settled[
            "backup"
        ]

    @pytest.mark.parametrize(
        "scheme_cls",
        [NoBackupScheme, ReactiveScheme, RandomBackupScheme],
        ids=lambda cls: cls.name,
    )
    def test_baselines_count_their_primary_searches(self, scheme_cls):
        metrics = ServiceMetrics()
        service = DRTPService(
            mesh_network(4, 4, 10.0), scheme_cls(), metrics=metrics,
            require_backup=False,
        )
        assert service.request(0, 15, 1.0).accepted
        assert not service.request(0, 15, 100.0).accepted
        searches = metrics.route_searches
        assert searches.value("primary", "probe") == 1.0
        assert searches.value("primary", "none") == 1.0
        assert searches.total() == 2.0

    def test_repairs_count_links_that_were_down(self):
        """One scrape answers "how many links are down": a repair that
        finds a healthy link — directly, or as a member of a repaired
        node — counts nothing, and the level has its own gauge."""
        metrics = ServiceMetrics()
        service = DRTPService(
            mesh_network(3, 3, 10.0), DLSRScheme(), metrics=metrics
        )
        service.fail_node(4)
        assert metrics.links_down.value() == 8.0
        service.repair_node(4)
        service.repair_link(0)
        service.repair_link(0)
        assert metrics.link_failures.value() == 1.0  # one event
        assert metrics.link_repairs.value() == 8.0
        assert metrics.links_down.value() == 0.0
        families = parse_prometheus_text(
            metrics.registry.render_prometheus()
        )
        assert families["drtp_links_down"]["type"] == "gauge"

    def test_uninstrumented_service_records_nothing(self):
        metrics = ServiceMetrics()
        net = mesh_network(3, 3, 10.0)
        service = DRTPService(net, DLSRScheme())
        assert service.request(0, 8, 1.0).accepted
        assert metrics.admissions.total() == 0.0
        assert metrics.admission_latency.count == 0


class TestSignalingSurfacesAgree:
    """``ServiceCounters`` and the registry agree on every count,
    whoever caused it: admission, the reconfiguration after a failure,
    the re-establishment queue, a repair."""

    FIELDS = ("walks", "retries", "drops", "duplicates", "crashes", "gave_up")

    #: Family -> the ``ServiceCounters`` field it is collected from.
    UNLABELED = {
        "drtp_degraded_admissions_total": "degraded_admissions",
        "drtp_signaling_walks_total": "signaling_walks",
        "drtp_signaling_hops_total": "signaling_hops",
        "drtp_signaling_retries_total": "signaling_retries",
        "drtp_signaling_drops_total": "signaling_drops",
        "drtp_signaling_duplicates_total": "signaling_duplicates",
        "drtp_signaling_crashes_total": "signaling_crashes",
        "drtp_signaling_gave_up_total": "signaling_gave_up",
        "drtp_link_failures_total": "failure_events",
        "drtp_link_repairs_total": "links_repaired",
        "drtp_backup_reestablish_attempts_total": "reestablish_attempts",
        "drtp_backups_reestablished_total": "backups_reestablished",
        "drtp_group_failures_total": "group_failures",
        "drtp_group_failed_links_total": "group_failed_links",
    }
    PER_SCHEME = {
        "drtp_admissions_total": "accepted",
        "drtp_releases_total": "released",
        "drtp_route_plans_total": "requests",
        "drtp_route_candidates_total": "plan_candidates",
    }
    BY_OUTCOME = {
        "drtp_recovery_outcomes_total": "recovery_outcomes",
        "drtp_group_recovery_outcomes_total": "group_recovery_outcomes",
    }
    DATABASE = {
        "drtp_db_refreshes_total": "refreshes",
        "drtp_db_links_rescanned_total": "links_rescanned",
    }

    def assert_agree(self, service, metrics):
        counted = {
            field: getattr(service.counters, "signaling_" + field)
            for field in self.FIELDS
        }
        scraped = {
            field: int(getattr(metrics, "signaling_" + field).value())
            for field in self.FIELDS
        }
        assert counted == scraped
        self.assert_every_family_agrees(service, metrics)
        return counted

    def assert_every_family_agrees(self, service, metrics):
        """Each ``drtp_*_total`` sample of a parsed scrape equals the
        tally it is collected from."""
        families = parse_prometheus_text(
            metrics.registry.render_prometheus()
        )
        counters = service.counters
        scheme = service.scheme.name

        def scraped(name, *label_names):
            assert families[name]["type"] == "counter", name
            return {
                tuple(sample.labels[label] for label in label_names):
                    sample.value
                for sample in families[name]["samples"]
            }

        expected = {}
        for name, tally in self.UNLABELED.items():
            expected[name] = scraped(name), {(): getattr(counters, tally)}
        for name, tally in self.PER_SCHEME.items():
            expected[name] = (
                scraped(name, "scheme"), {(scheme,): getattr(counters, tally)}
            )
        for name, tally in self.BY_OUTCOME.items():
            expected[name] = scraped(name, "outcome"), {
                (reason,): count
                for reason, count in getattr(counters, tally).items()
            }
        for name, tally in self.DATABASE.items():
            expected[name] = (
                scraped(name), {(): getattr(service.database, tally)}
            )
        expected["drtp_rejections_total"] = (
            scraped("drtp_rejections_total", "scheme", "reason"),
            {(scheme, reason): count
             for reason, count in counters.rejected.items()},
        )
        expected["drtp_route_searches_total"] = (
            scraped("drtp_route_searches_total", "search", "answer"),
            counters.searches,
        )
        expected["drtp_route_exhaustive_settled_total"] = (
            scraped("drtp_route_exhaustive_settled_total", "search"),
            {(search,): settled
             for search, settled in counters.exhaustive_settled.items()},
        )
        for name, (samples, tallies) in expected.items():
            assert samples == tallies, name
        # No counter family escapes the comparison.
        assert set(expected) == {
            name for name in families if name.endswith("_total")
        }
        assert families["drtp_links_down"]["samples"][0].value == len(
            service.state.failed_links()
        )
        assert families["drtp_db_dirty_links"]["type"] == "gauge"

    @pytest.mark.parametrize("faulted", [False, True], ids=["clean", "lossy"])
    def test_counters_equal_registry_through_recovery(self, faulted):
        from repro.topology import mesh_conduit_groups

        metrics = ServiceMetrics()
        net = mesh_network(4, 4, 10.0)
        groups = mesh_conduit_groups(net, 4, 4)
        faults = {}
        if faulted:
            plan = FaultPlan(signaling=SignalingFaults(
                drop_prob=0.1, duplicate_prob=0.1, crash_prob=0.1
            ))
            faults = {
                "fault_injector": FaultInjector(plan, seed=3),
                "retry_policy": RetryPolicy(max_attempts=2),
            }
        service = DRTPService(
            net, DLSRScheme(), metrics=metrics, risk_groups=groups, **faults
        )
        rng = random.Random(5)
        for _ in range(40):
            source, destination = rng.sample(range(16), 2)
            service.request(source, destination, 1.0)
        admitted = self.assert_agree(service, metrics)
        assert (admitted["retries"] > 0) == faulted

        first_victim = service.links_carrying_primaries()[0]
        service.fail_link(first_victim)
        reconfigured = self.assert_agree(service, metrics)
        assert reconfigured["walks"] > admitted["walks"]

        group_id = groups.group_of(service.links_carrying_primaries()[0])
        service.fail_group(group_id, reconfigure=False)
        bare = [
            conn.connection_id for conn in service.connections()
            if service.queue_backup_reestablishment(conn.connection_id)
        ]
        assert bare
        for connection_id in bare:
            service.reestablish_backup(connection_id)
        assert self.assert_agree(service, metrics)["walks"] > (
            reconfigured["walks"]
        )

        # A switch outage, then everything repaired — twice over, so
        # the repairs that find a healthy link are in the script too.
        service.fail_node(5)
        service.request(0, 15, 100.0)  # a rejection, for its family
        for conn in list(service.connections())[:3]:
            service.release(conn.connection_id)
        self.assert_agree(service, metrics)
        down = len(service.state.failed_links())
        assert down > len(groups.members(group_id))
        service.repair_link(first_victim)
        service.repair_group(group_id)
        service.repair_node(5)
        service.repair_link(first_victim)
        self.assert_agree(service, metrics)
        assert service.state.failed_links() == frozenset()
        assert service.counters.links_repaired == down
        assert service.counters.failure_events == 3
        assert service.counters.released == 3
        assert {search for search, _ in service.counters.searches} == {
            "primary", "backup",
        }


class TestGroupFailureInstrumentation:
    """SRLG recovery counters, recorded through correlated failures."""

    def _grouped_service(self):
        from repro.topology import mesh_conduit_groups

        metrics = ServiceMetrics()
        net = mesh_network(4, 4, 10.0)
        groups = mesh_conduit_groups(net, 4, 4)
        service = DRTPService(
            net, DLSRScheme(), metrics=metrics, risk_groups=groups
        )
        metrics.bind_service(service)
        return service, metrics, groups

    def test_group_failure_families_exposed_before_any_traffic(self):
        """The scrape contract: the three SRLG families must be present
        in the exposition even before a correlated failure occurs."""
        _, _, metrics = instrumented_service()
        families = parse_prometheus_text(
            metrics.registry.render_prometheus()
        )
        for required in (
            "drtp_group_failures_total",
            "drtp_group_failed_links_total",
            "drtp_group_recovery_outcomes_total",
        ):
            assert required in families, required

    def test_fail_group_increments_the_counters(self):
        service, metrics, groups = self._grouped_service()
        for source in range(3):
            assert service.request(source, 15, 1.0).accepted
        group_id = groups.group_of(
            service.links_carrying_primaries()[0]
        )
        impact = service.fail_group(group_id)
        assert metrics.group_failures.value() == 1.0
        assert metrics.group_failed_links.value() == float(
            len(groups.members(group_id))
        )
        assert metrics.group_recoveries.total() == float(impact.affected)
        # The aggregate failure/recovery families see the event too.
        assert metrics.link_failures.value() == 1.0
        assert metrics.recoveries.total() == float(impact.affected)

    def test_fail_link_set_counts_as_one_event(self):
        service, metrics, _ = self._grouped_service()
        assert service.request(0, 15, 1.0).accepted
        victims = set(service.links_carrying_primaries()[:2])
        service.fail_link_set(victims)
        assert metrics.group_failures.value() == 1.0
        assert metrics.group_failed_links.value() == float(len(victims))
