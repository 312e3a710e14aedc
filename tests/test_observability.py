"""Tests for the span-tracing layer (``repro.observability``).

Covers span nesting and parent links (sync and under concurrent
asyncio tasks), ring-buffer drop counting, the Chrome ``trace_event``
exporter and its schema validator (including a golden fixture built
with an injected fake clock), the NDJSON round trip, cross-process
span ingestion, the span tree a traced admission produces, the traced
control-plane server (concurrent batches must not interleave
parents), and the ``repro trace`` CLI end to end.
"""

import asyncio
import contextvars
import json
import os
import random
from pathlib import Path

import pytest

from repro.cli import main
from repro.core import DRTPService
from repro.core.recovery import incident_link_ids
from repro.faults.retry import RetryPolicy
from repro.kernels.search import ANSWERS
from repro.observability import (
    TraceCollector,
    TraceFormatError,
    chrome_trace,
    read_ndjson,
    validate_chrome_trace,
    write_chrome_trace,
    write_ndjson,
)
from repro.routing import (
    BoundedFloodingScheme,
    DLSRScheme,
    NoBackupScheme,
    PLSRScheme,
    RandomBackupScheme,
    ReactiveScheme,
)
from repro.server import ControlPlaneServer, decode_response, encode_request
from repro.topology import mesh_network

GOLDEN = Path(__file__).parent / "golden" / "chrome_trace_sample.json"
SPAN_FOREST = Path(__file__).parent / "golden" / "span_forest.jsonl"


class FakeClock:
    """Deterministic monotonic clock: every reading advances 1 ms."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 0.001
        return self.now


def build_golden_collector():
    """The deterministic span tree behind the golden fixture."""
    collector = TraceCollector(clock=FakeClock())
    with collector.span("service.admit", category="service", request=1):
        with collector.span("route.plan", category="routing",
                            scheme="D-LSR"):
            with collector.span("route.primary_search",
                                category="routing"):
                pass
            with collector.span("route.backup_search", category="routing",
                                backup_index=0) as search:
                search.tag(found=True, q_links=0)
        with collector.span("signal.register", category="signaling",
                            hops=3) as walk:
            walk.tag(success=True)
    with collector.span("service.release", category="service",
                        connection=0):
        pass
    return collector


# ----------------------------------------------------------------------
# Span mechanics
# ----------------------------------------------------------------------
class TestSpanNesting:
    def test_sync_nesting_assigns_parents(self):
        collector = TraceCollector()
        with collector.span("outer") as outer:
            assert collector.current() is outer
            with collector.span("inner") as inner:
                assert collector.current() is inner
                assert inner.parent_id == outer.span_id
            assert collector.current() is outer
        assert collector.current() is None
        # Completion order: children finish (and record) first.
        assert [span.name for span in collector] == ["inner", "outer"]
        assert outer.parent_id is None
        assert inner.tid == outer.tid  # children inherit the lane

    def test_durations_are_monotonic_and_contained(self):
        collector = TraceCollector(clock=FakeClock())
        with collector.span("outer") as outer:
            with collector.span("inner") as inner:
                pass
        assert inner.start >= outer.start
        assert inner.duration < outer.duration
        assert outer.duration > 0

    def test_exception_marks_error_status(self):
        collector = TraceCollector()
        with pytest.raises(ValueError):
            with collector.span("explodes"):
                raise ValueError("boom")
        (span,) = collector.spans("explodes")
        assert span.status == "error"
        assert span.tags["error"] == "ValueError"

    def test_two_phase_span_keeps_creation_time_parent(self):
        collector = TraceCollector()
        with collector.span("batch") as batch:
            op = collector.span("op", op="admit").start_now()
            # Not the context's current span: two-phase spans never
            # capture children.
            assert collector.current() is batch
        op.finish(ok=True)
        assert op.parent_id == batch.span_id
        assert op.tags == {"op": "admit", "ok": True}

    def test_explicit_parent_overrides_context(self):
        collector = TraceCollector()
        with collector.span("handler") as handler:
            pass
        with collector.span("writer"):
            with collector.span("apply", parent=handler) as apply:
                pass
        assert apply.parent_id == handler.span_id
        assert apply.tid == handler.tid

    def test_separate_contexts_get_separate_lanes(self):
        collector = TraceCollector()

        def one_root():
            with collector.span("root"):
                pass

        contextvars.copy_context().run(one_root)
        contextvars.copy_context().run(one_root)
        lanes = {span.tid for span in collector.spans("root")}
        assert len(lanes) == 2

    def test_counts_histogram(self):
        collector = TraceCollector()
        for _ in range(3):
            with collector.span("a"):
                pass
        with collector.span("b"):
            pass
        assert collector.counts() == {"a": 3, "b": 1}


class TestDropCounting:
    def test_ring_buffer_keeps_newest_and_counts_drops(self):
        collector = TraceCollector(max_spans=3)
        for index in range(7):
            with collector.span("span-{}".format(index)):
                pass
        assert len(collector) == 3
        assert collector.dropped == 4
        assert [span.name for span in collector] == [
            "span-4", "span-5", "span-6",
        ]

    def test_unbounded_never_drops(self):
        collector = TraceCollector()
        for _ in range(100):
            with collector.span("s"):
                pass
        assert len(collector) == 100
        assert collector.dropped == 0

    def test_max_spans_validated(self):
        with pytest.raises(ValueError):
            TraceCollector(max_spans=0)


class TestAsyncioIsolation:
    def test_concurrent_tasks_do_not_interleave_parents(self):
        collector = TraceCollector()

        async def worker(name, steps):
            with collector.span("task", worker=name) as root:
                for step in range(steps):
                    with collector.span("step", index=step) as span:
                        # Yield mid-span so the other task interleaves.
                        await asyncio.sleep(0)
                        assert collector.current() is span
                    assert collector.current() is root
            return root

        async def run():
            return await asyncio.gather(
                worker("a", 4), worker("b", 4)
            )

        root_a, root_b = asyncio.run(run())
        assert root_a.tid != root_b.tid  # one Chrome lane per task
        for root in (root_a, root_b):
            steps = [
                span for span in collector.spans("step")
                if span.parent_id == root.span_id
            ]
            assert [span.tags["index"] for span in steps] == [0, 1, 2, 3]
            assert all(span.tid == root.tid for span in steps)


# ----------------------------------------------------------------------
# Export formats
# ----------------------------------------------------------------------
class TestChromeExport:
    def test_collector_exports_valid_trace(self):
        collector = build_golden_collector()
        payload = chrome_trace(collector, label="sample")
        count = validate_chrome_trace(payload)
        # One metadata event (single pid) plus one X event per span.
        assert count == len(collector) + 1
        phases = [event["ph"] for event in payload["traceEvents"]]
        assert phases.count("M") == 1
        assert phases.count("X") == len(collector)
        assert payload["otherData"]["dropped_spans"] == 0

    def test_dropped_count_rides_in_other_data(self):
        collector = TraceCollector(max_spans=1)
        for _ in range(3):
            with collector.span("s"):
                pass
        payload = chrome_trace(collector)
        assert payload["otherData"]["dropped_spans"] == 2

    def test_non_json_tags_are_coerced(self):
        collector = TraceCollector()
        with collector.span("s", lset=frozenset({3, 1, 2}),
                            route=(4, 5)):
            pass
        payload = chrome_trace(collector)
        validate_chrome_trace(payload)
        args = payload["traceEvents"][-1]["args"]
        assert args["lset"] == [1, 2, 3]
        assert args["route"] == [4, 5]

    def test_validator_accepts_bare_array_form(self):
        assert validate_chrome_trace([
            {"ph": "X", "name": "op", "ts": 0, "dur": 1,
             "pid": 0, "tid": 0},
        ]) == 1

    @pytest.mark.parametrize("payload, message", [
        (42, "trace must be"),
        ({"events": []}, "traceEvents"),
        ([{"ph": "Z", "name": "op", "pid": 0, "tid": 0}], "unknown phase"),
        ([{"ph": "X", "name": "", "pid": 0, "tid": 0,
           "ts": 0, "dur": 0}], "name"),
        ([{"ph": "X", "name": "op", "pid": "zero", "tid": 0,
           "ts": 0, "dur": 0}], "integer"),
        ([{"ph": "X", "name": "op", "pid": 0, "tid": 0,
           "ts": -1, "dur": 0}], "non-negative"),
        ([{"ph": "X", "name": "op", "pid": 0, "tid": 0,
           "ts": 0}], "'dur'"),
        ([{"ph": "X", "name": "op", "pid": 0, "tid": 0, "ts": 0,
           "dur": 0, "args": "nope"}], "args"),
    ])
    def test_validator_rejects_schema_violations(self, payload, message):
        with pytest.raises(TraceFormatError) as exc:
            validate_chrome_trace(payload)
        assert message in str(exc.value)

    def test_validator_rejects_unserializable_args(self):
        with pytest.raises(TraceFormatError) as exc:
            validate_chrome_trace([
                {"ph": "X", "name": "op", "pid": 0, "tid": 0,
                 "ts": 0, "dur": 0, "args": {"bad": object()}},
            ])
        assert "serializable" in str(exc.value)

    def test_golden_fixture_round_trip(self):
        """The deterministic fake-clock trace must match the committed
        fixture byte for byte (after canonical JSON formatting)."""
        payload = chrome_trace(build_golden_collector(), label="golden")
        validate_chrome_trace(payload)
        expected = json.loads(GOLDEN.read_text())
        assert payload == expected

    def test_write_chrome_trace_validates_then_writes(self, tmp_path):
        out = tmp_path / "trace.json"
        count = write_chrome_trace(out, build_golden_collector())
        assert count == validate_chrome_trace(
            json.loads(out.read_text())
        )


class TestNdjson:
    def test_round_trip(self, tmp_path):
        collector = build_golden_collector()
        out = tmp_path / "trace.ndjson"
        written = write_ndjson(out, collector, label="sample")
        assert written == len(collector)
        meta, spans = read_ndjson(out)
        assert meta["version"] == 1
        assert meta["label"] == "sample"
        assert meta["spans"] == len(spans) == len(collector)
        assert meta["dropped"] == 0
        by_id = {record["span_id"]: record for record in spans}
        for span in collector:
            record = by_id[span.span_id]
            assert record["name"] == span.name
            assert record["parent_id"] == span.parent_id
            assert record["start"] == span.start

    def test_ingested_ndjson_rebuilds_the_tree(self, tmp_path):
        worker = build_golden_collector()
        out = tmp_path / "worker.ndjson"
        write_ndjson(out, worker)
        meta, spans = read_ndjson(out)
        merged = TraceCollector()
        with merged.span("local"):
            pass
        assert merged.ingest(spans, pid=2,
                             dropped=meta["dropped"]) == len(spans)
        admit = merged.spans("service.admit")[0]
        plans = merged.spans("route.plan")
        assert plans[0].parent_id == admit.span_id
        assert admit.pid == 2
        assert merged.spans("local")[0].pid == 0
        # Remapped ids never collide with local ones.
        ids = [span.span_id for span in merged]
        assert len(ids) == len(set(ids))


class TestIngest:
    def test_missing_parent_becomes_root(self):
        collector = TraceCollector()
        count = collector.ingest(
            [{"span_id": 40, "parent_id": 39, "name": "orphan",
              "start": 1.0, "duration": 0.5, "tid": 3}],
            pid=1, dropped=7,
        )
        assert count == 1
        (span,) = collector.spans("orphan")
        assert span.parent_id is None  # parent 39 fell out of the ring
        assert span.pid == 1
        assert span.tid == 3
        assert collector.dropped == 7


# ----------------------------------------------------------------------
# The traced service: one admission's span tree
# ----------------------------------------------------------------------
class TestServiceSpanTree:
    def make_service(self, detail=True, **kwargs):
        collector = TraceCollector(detail=detail)
        network = mesh_network(4, 4, 10.0)
        service = DRTPService(
            network, DLSRScheme(), trace=collector, **kwargs
        )
        return service, collector

    def test_admission_produces_nested_tree(self):
        service, collector = self.make_service()
        decision = service.request(source=0, destination=15, bw_req=1.0)
        assert decision.accepted
        (admit,) = collector.spans("service.admit")
        assert admit.parent_id is None
        assert admit.tags["accepted"] is True
        (plan,) = collector.spans("route.plan")
        assert plan.parent_id == admit.span_id
        assert plan.tags["accepted"] is True
        (primary,) = collector.spans("route.primary_search")
        assert primary.parent_id == plan.span_id
        assert primary.tags["found"] is True
        # An empty network: the first hop-bounded pass finds it.
        assert primary.tags["answer"] == "probe"
        backups = collector.spans("route.backup_search")
        assert backups and all(
            span.parent_id == plan.span_id for span in backups
        )
        found = [span for span in backups if span.tags["found"]]
        assert found
        assert all(span.tags["answer"] in ANSWERS for span in backups)
        # detail=True searches carry the cost decomposition the
        # EXPERIMENTS.md walkthrough reads.
        for span in found:
            assert span.tags["q_links"] >= 0
            assert span.tags["cost"] >= span.tags["conflict"]
        (register,) = collector.spans("signal.register")
        assert register.parent_id == admit.span_id
        assert register.tags["success"] is True

    @pytest.mark.parametrize(
        "scheme_cls",
        [NoBackupScheme, ReactiveScheme, RandomBackupScheme],
        ids=lambda cls: cls.name,
    )
    def test_baselines_trace_their_primary_search(self, scheme_cls):
        """The baselines plan their primary through the link-state
        schemes' step, so a traced admission shows the same
        ``route.primary_search`` child under ``route.plan``."""
        collector = TraceCollector()
        service = DRTPService(
            mesh_network(4, 4, 10.0), scheme_cls(), trace=collector,
            require_backup=False,
        )
        assert service.request(source=0, destination=15, bw_req=1.0).accepted
        assert not service.request(
            source=0, destination=15, bw_req=100.0
        ).accepted
        plans = collector.spans("route.plan")
        found, missed = collector.spans("route.primary_search")
        assert [found.parent_id, missed.parent_id] == [
            plan.span_id for plan in plans
        ]
        assert found.tags == {"answer": "probe", "found": True, "hops": 6}
        assert missed.tags == {"answer": "none", "found": False}

    def test_detail_off_skips_cost_decomposition(self):
        service, collector = self.make_service(detail=False)
        assert service.request(
            source=0, destination=15, bw_req=1.0
        ).accepted
        found = [
            span for span in collector.spans("route.backup_search")
            if span.tags["found"]
        ]
        assert found
        # The production-shape collector still gets the span tree but
        # never pays for the per-route conflict re-evaluation.
        for span in found:
            assert "cost" not in span.tags
            assert "q_links" not in span.tags

    def test_rejection_tags_the_reason(self):
        service, collector = self.make_service()
        decision = service.request(source=0, destination=15, bw_req=99.0)
        assert not decision.accepted
        (admit,) = collector.spans("service.admit")
        assert admit.tags["accepted"] is False
        assert admit.tags["reason"]

    def test_release_and_failure_are_spanned(self):
        service, collector = self.make_service()
        decision = service.request(source=0, destination=15, bw_req=1.0)
        connection = decision.connection
        link = connection.primary_route.link_ids[0]
        service.fail_link(link)
        service.repair_link(link)
        service.repair_link(link)  # idempotent: nothing left to repair
        service.release(connection.connection_id)
        assert collector.spans("service.fail_link")
        assert collector.spans("service.release")
        releases = collector.spans("signal.release")
        assert releases
        # A trace that shows a link going down shows it coming back.
        assert [span.tags for span in collector.spans("service.repair")] == [
            {"scheme": "D-LSR", "links": 1, "link_ids": [link],
             "links_repaired": 1},
            {"scheme": "D-LSR", "links": 1, "link_ids": [link],
             "links_repaired": 0},
        ]
        service.fail_node(5)
        service.repair_node(5)
        node_links = sorted(incident_link_ids(service.network, 5))
        assert collector.spans("service.repair")[-1].tags == {
            "scheme": "D-LSR", "links": 8, "link_ids": node_links,
            "links_repaired": 8,
        }

    def test_untraced_service_allocates_no_span(self, monkeypatch):
        """With no collector bound and no span open, every site's cost
        is its guard: 200 admissions (and the releases between them)
        construct no :class:`Span` at all."""
        from repro.observability import Span

        constructed = []
        init = Span.__init__

        def counting_init(self, *args, **kwargs):
            constructed.append(args[1])
            init(self, *args, **kwargs)

        monkeypatch.setattr(Span, "__init__", counting_init)
        service = DRTPService(mesh_network(4, 4, 10.0), DLSRScheme())
        for index in range(200):
            decision = service.request(
                source=index % 16, destination=(index + 5) % 16, bw_req=0.5
            )
            if decision.accepted and index % 2:
                service.release(decision.connection.connection_id)
        assert service.counters.accepted > 100
        assert constructed == []
        # The count is live: the same service under an open span does
        # record — as that span's children, in its collector.
        collector = TraceCollector()
        with collector.span("caller"):
            service.request(source=0, destination=15, bw_req=0.5)
        assert "service.admit" in constructed
        assert collector.spans("service.admit")

    def test_reprotection_walks_are_spanned_and_counted(self):
        """DRTP step 4 under ``fail_link``: the walk that re-protects
        a connection whose backup the failure broke is a
        ``signal.register`` span under the failure's span, and reaches
        the signaling counters like an admission's walk does."""
        from repro.metrics import ServiceMetrics

        metrics = ServiceMetrics()
        service, collector = self.make_service(metrics=metrics)
        connection = service.request(
            source=0, destination=15, bw_req=1.0
        ).connection
        walks = metrics.signaling_walks.value()
        hops = metrics.signaling_hops.value()
        service.fail_link(connection.backup_route.link_ids[0])
        assert connection.backup is not None  # re-protected
        (fail,) = collector.spans("service.fail_link")
        (_, reprotect) = collector.spans("signal.register")
        assert reprotect.parent_id == fail.span_id
        assert reprotect.tags["success"] is True
        assert metrics.signaling_walks.value() == walks + 1
        assert metrics.signaling_hops.value() == hops + len(
            connection.backup_route.link_ids
        )


# ----------------------------------------------------------------------
# The traced server: concurrent batches keep separate trees
# ----------------------------------------------------------------------
class TestTracedServer:
    def run_two_clients(self, tmp_path, trace_dir=None, service_trace=None):
        collector = TraceCollector()

        async def _run():
            network = mesh_network(4, 4, 10.0)
            service = DRTPService(
                network, PLSRScheme(), trace=service_trace
            )
            sock = str(tmp_path / "traced.sock")
            server = ControlPlaneServer(
                service, socket_path=sock, trace=collector,
                trace_dir=trace_dir,
            )
            await server.start()

            async def client(offset, count):
                reader, writer = await asyncio.open_unix_connection(sock)
                burst = b"".join(
                    encode_request(
                        "admit",
                        {"source": 0, "destination": 15, "bw": 0.1},
                        request_id=offset + i,
                    )
                    for i in range(count)
                )
                writer.write(burst)
                await writer.drain()
                responses = []
                for _ in range(count):
                    line = await reader.readline()
                    responses.append(decode_response(line.decode()))
                writer.close()
                return responses

            first, second = await asyncio.gather(
                client(0, 5), client(100, 3)
            )
            await server.shutdown()
            return first, second, server

        return collector, asyncio.run(_run())

    def test_concurrent_batches_do_not_share_parents(self, tmp_path):
        collector, (first, second, _) = self.run_two_clients(tmp_path)
        assert all(ok for _, ok, _ in first)
        assert all(ok for _, ok, _ in second)
        batches = {
            span.span_id: span for span in collector.spans("server.batch")
        }
        assert len(batches) >= 2
        ops = collector.spans("server.op")
        assert len(ops) == 8
        # Every op belongs to exactly one batch, on the batch's lane.
        per_batch = {}
        for op in ops:
            assert op.parent_id in batches
            assert op.tid == batches[op.parent_id].tid
            per_batch.setdefault(op.parent_id, []).append(op)
        sizes = sorted(len(group) for group in per_batch.values())
        assert sum(sizes) == 8
        # Ops from the two connections never claim the same batch: the
        # batch line counts must match what each client pipelined.
        line_counts = sorted(
            batches[batch_id].tags["lines"] for batch_id in per_batch
        )
        assert line_counts == sizes

    def test_applies_parent_to_ops_and_nest_admissions(self, tmp_path):
        collector, _ = self.run_two_clients(tmp_path)
        op_ids = {span.span_id for span in collector.spans("server.op")}
        applies = collector.spans("server.apply")
        assert len(applies) == 8
        assert all(span.parent_id in op_ids for span in applies)
        apply_ids = {span.span_id for span in applies}
        admits = collector.spans("service.admit")
        assert len(admits) == 8
        # The writer task's contextvars nest the core's spans under
        # the server.apply it opened.
        assert all(span.parent_id in apply_ids for span in admits)

    def test_service_with_its_own_collector_still_nests(self, tmp_path):
        """A server handed a collector serves a service built with
        another one: the tree is not split — every span of the
        service joins the ``server.apply`` open around it, in the
        server's collector, and the service's own stays empty."""
        own = TraceCollector()
        collector, _ = self.run_two_clients(tmp_path, service_trace=own)
        assert len(own) == 0
        apply_ids = {
            span.span_id for span in collector.spans("server.apply")
        }
        admits = collector.spans("service.admit")
        assert len(admits) == 8
        assert all(span.parent_id in apply_ids for span in admits)
        assert len(collector.spans("route.plan")) == 8

    def test_trace_dir_written_on_shutdown(self, tmp_path):
        trace_dir = tmp_path / "traces"
        collector, _ = self.run_two_clients(
            tmp_path, trace_dir=str(trace_dir)
        )
        chrome = json.loads((trace_dir / "server_trace.json").read_text())
        assert validate_chrome_trace(chrome) > 0
        meta, spans = read_ndjson(trace_dir / "server_trace.ndjson")
        assert meta["spans"] == len(spans) == len(collector)


# ----------------------------------------------------------------------
# The span forest of one scripted run, pinned
# ----------------------------------------------------------------------
class ScriptedDrops:
    """Signaling faults on cue: the next ``drops`` register packets
    are lost at their first hop, everything else is delivered."""

    def __init__(self):
        self.drops = 0
        self.retry_rng = random.Random(0)

    def crash_hop(self, hops):
        return None

    def sample_hop(self):
        if self.drops:
            self.drops -= 1
            return "drop", 0.0
        return "deliver", 0.0


def forest_rows(run, collector):
    """One row per finished span, in completion order: the trace
    minus ids, lanes and timings."""
    names = {span.span_id: span.name for span in collector}
    return [
        {
            "run": run,
            "name": span.name,
            "parent": names.get(span.parent_id),
            "category": span.category,
            "tags": span.tags,
        }
        for span in collector
    ]


def scripted_service_forest(scheme_cls):
    """Admit, a rejected admit, release, ``fail_link`` with
    reconfiguration, repair, a node failure and repair, then — on a
    second service whose signaling drops packets on cue — a register
    walk that needs one retry and one that gives up, is admitted
    degraded and re-protected from the queue."""
    collector = TraceCollector(clock=FakeClock(), detail=True)
    service = DRTPService(
        mesh_network(4, 4, 2.0), scheme_cls(), trace=collector
    )
    first = service.request(source=0, destination=15, bw_req=1.0)
    second = service.request(source=5, destination=10, bw_req=1.0)
    assert first.accepted and second.accepted
    assert not service.request(source=0, destination=15, bw_req=9.0).accepted
    service.release(first.connection.connection_id)
    link = second.connection.backup_route.link_ids[0]
    service.fail_link(link)
    assert second.connection.backup is not None  # reconfigured
    service.repair_link(link)
    service.fail_node(6)
    service.repair_node(6)

    faults = ScriptedDrops()
    lossy = DRTPService(
        mesh_network(4, 4, 2.0), scheme_cls(), trace=collector,
        fault_injector=faults,
        retry_policy=RetryPolicy(max_attempts=2, jitter=0.0),
    )
    faults.drops = 1
    retried = lossy.request(source=0, destination=15, bw_req=1.0)
    assert retried.accepted and not retried.degraded
    faults.drops = 2
    degraded = lossy.request(source=3, destination=12, bw_req=1.0)
    assert degraded.degraded
    assert lossy.reestablish_backup(degraded.connection.connection_id)
    return forest_rows(scheme_cls.name, collector)


def pipelined_server_forest(tmp_path):
    """One pipelined burst — two admits, a read, a release, a line
    that does not decode — through a traced server over a service
    that was built without a collector."""
    collector = TraceCollector(clock=FakeClock())

    async def _run():
        service = DRTPService(mesh_network(4, 4, 2.0), PLSRScheme())
        sock = str(tmp_path / "forest.sock")
        server = ControlPlaneServer(
            service, socket_path=sock, trace=collector
        )
        await server.start()
        reader, writer = await asyncio.open_unix_connection(sock)
        admit = {"source": 0, "destination": 15, "bw": 1.0}
        writer.write(b"".join((
            encode_request("admit", admit, request_id=1),
            encode_request("admit", admit, request_id=2),
            encode_request("ping", {}, request_id=3),
            encode_request("release", {"connection": 0}, request_id=4),
            b"not json\n",
        )))
        await writer.drain()
        for _ in range(5):
            await reader.readline()
        writer.close()
        await server.shutdown()

    asyncio.run(_run())
    return forest_rows("server", collector)


class TestSpanForest:
    """Span names, parents, categories and tags of one scripted run,
    compared with the committed forest byte for byte.  Regenerate
    (after an *intentional* change to what is traced) with
    ``REGEN_GOLDEN=1``, as for the golden decision traces."""

    def test_scripted_run_reproduces_the_committed_forest(self, tmp_path):
        forest = (
            scripted_service_forest(DLSRScheme)
            + scripted_service_forest(BoundedFloodingScheme)
            + pipelined_server_forest(tmp_path)
        )
        text = "".join(
            json.dumps(row, sort_keys=True) + "\n" for row in forest
        )
        if os.environ.get("REGEN_GOLDEN"):
            SPAN_FOREST.write_text(text)
        assert text == SPAN_FOREST.read_text()


# ----------------------------------------------------------------------
# CLI end to end
# ----------------------------------------------------------------------
class TestTraceCli:
    @pytest.fixture
    def inputs(self, tmp_path):
        topology = tmp_path / "net.json"
        scenario = tmp_path / "scen.json"
        assert main(["topology", str(topology), "--nodes", "20",
                     "--capacity", "15", "--seed", "4"]) == 0
        assert main(["scenario", str(scenario), "--nodes", "20",
                     "--rate", "0.05", "--duration", "600",
                     "--seed", "4"]) == 0
        return topology, scenario

    def test_trace_command_emits_validated_artifacts(
        self, inputs, tmp_path, capsys
    ):
        topology, scenario = inputs
        out = tmp_path / "trace.json"
        ndjson = tmp_path / "trace.ndjson"
        assert main([
            "trace", str(topology), str(scenario), "--scheme", "D-LSR",
            "--out", str(out), "--ndjson", str(ndjson),
        ]) == 0
        payload = json.loads(out.read_text())
        assert validate_chrome_trace(payload) > 0
        names = {
            event["name"] for event in payload["traceEvents"]
            if event["ph"] == "X"
        }
        assert "service.admit" in names
        assert "route.plan" in names
        assert "signal.register" in names
        meta, spans = read_ndjson(ndjson)
        assert meta["spans"] == len(spans) > 0
        captured = capsys.readouterr().out
        assert "service.admit" in captured
        assert "primary searches answered by: probe " in captured
        assert "backup searches answered by: probe " in captured
        assert "ui.perfetto.dev" in captured

    def test_trace_respects_max_spans(self, inputs, tmp_path, capsys):
        topology, scenario = inputs
        out = tmp_path / "trace.json"
        assert main([
            "trace", str(topology), str(scenario),
            "--out", str(out), "--max-spans", "50",
        ]) == 0
        payload = json.loads(out.read_text())
        events = [
            event for event in payload["traceEvents"]
            if event["ph"] == "X"
        ]
        assert len(events) == 50
        assert payload["otherData"]["dropped_spans"] > 0
