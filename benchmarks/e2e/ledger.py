"""The per-layer ledger: spans and counts of a traced run, by metric.

Every name produced here is listed in ``BENCHMARK.json`` under
``per_layer`` (a self-test keeps the two in step).  Times are mean
microseconds per call of the wrapped function; ``*_self_us`` is the
part not covered by child spans.  A metric a workload does not exercise
reads 0.
"""

from __future__ import annotations

from typing import Dict

from repro.core.errors import DRTPError

from common import HostProbe, Run
from spans import MESH8, PROBE_SPAN, SpanTotals, aggregate, root_ns
from stats import percentile

#: Span name -> ServiceCounters field, for counts read off the service.
_COUNTER_FIELDS = {
    "core.requests": "requests",
    "core.accepted": "accepted",
    "core.released": "released",
    "core.degraded_admissions": "degraded_admissions",
    "core.signal_walks": "signaling_walks",
    "core.signal_retries": "signaling_retries",
    "core.signal_gave_up": "signaling_gave_up",
    "faults.signal_drops": "signaling_drops",
    "routing.bf_control_messages": "control_messages",
}


def service_counts(service) -> Dict[str, int]:
    """Lifetime counts of one service, under their ledger names."""
    counters = service.counters
    counts = {name: getattr(counters, attr)
              for name, attr in _COUNTER_FIELDS.items()}
    counts["core.rejected"] = sum(counters.rejected.values())
    counts["core.slab_high_water"] = (
        service.connection_store_stats()["high_water"])
    return counts


def invariant_error(service) -> str:
    """``""`` when the service's ledgers agree with its connections."""
    try:
        service.check_invariants()
    except (DRTPError, RuntimeError, AssertionError) as exc:
        return repr(exc)
    return ""


def counts_since(before: Dict[str, int], after: Dict[str, int]
                 ) -> Dict[str, int]:
    """Counts accrued between two :func:`service_counts` readings (the
    slab high-water mark is a level, not a flow)."""
    delta = {name: after[name] - before.get(name, 0) for name in after}
    delta["core.slab_high_water"] = after["core.slab_high_water"]
    return delta


def status_counts(status: dict) -> Dict[str, int]:
    """The part of :func:`service_counts` a server's ``status`` answer
    carries, plus the dispatch loop's own counts."""
    counters = status["counters"]
    server = status["server"]
    return {
        "core.requests": counters["requests"],
        "core.accepted": counters["accepted"],
        "core.rejected": sum(counters["rejected"].values()),
        "core.released": counters["released"],
        "core.degraded_admissions": counters["degraded_admissions"],
        "server.requests": sum(
            server["ops"].get(op, 0) for op in ("admit", "release")),
        "server.batches": server["batches"],
        "server.protocol_errors": server["protocol_errors"],
        "server.internal_errors": server["internal_errors"],
    }


def per_layer(untraced: Run, traced: Run, host: dict,
              input_build_s: float, is_cell: bool) -> Dict[str, float]:
    """Every per-layer metric of one workload from its trace pair: the
    same op prefix run untraced, then traced."""
    totals = aggregate(traced.spans)
    zero = SpanTotals()

    def span(name: str) -> SpanTotals:
        return totals.get(name, zero)

    out: Dict[str, float] = {}
    for name, entry in totals.items():
        if name.endswith("_us"):
            out[name] = entry.mean_us
    counts = traced.counters
    out.update({name: float(value) for name, value in counts.items()})

    wall_ns = traced.wall_s * 1e9
    ops = max(1, traced.ops)

    # -- server ---------------------------------------------------------
    edge_ns = sum(span(name).total_ns for name in (
        "server.decode_us", "server.apply_admit_us",
        "server.apply_release_us", "server.encode_us"))
    served = span("server.decode_us").calls
    out["server.residual_us"] = (
        (wall_ns - edge_ns) / ops / 1e3 if served else 0.0)
    batches = counts.get("server.batches", 0)
    out["server.batch_mean"] = (
        counts.get("server.requests", 0) / batches if batches else 0.0)
    out["server.cpu_share"] = (
        traced.owner_cpu_s / traced.wall_s if served else 0.0)

    # -- core / routing / kernels --------------------------------------
    out["core.admit_self_us"] = span("core.admit_us").self_mean_us
    out["core.fail_links"] = float(span("core.fail_link_us").calls)
    fail_links = untraced.sorted_ms("fail_link")
    out["core.fail_link_p50_ms"] = (
        percentile(fail_links, 50.0) if fail_links else 0.0)
    out["core.reconfigured"] = float(span("core.reconfigured").calls)
    out["routing.plan_self_us"] = span("routing.plan_us").self_mean_us
    out["routing.plan_backup_calls"] = float(
        span("routing.plan_backup_us").calls)
    probes = span("routing.warm_probe_us").calls
    hits = span("routing.warm_hits").calls
    out["routing.warm_probes"] = float(probes)
    out["routing.warm_hits"] = float(hits)
    out["routing.warm_hit_ratio"] = hits / probes if probes else 0.0
    out["kernels.flush_calls"] = float(span("kernels.flush_us").calls)
    out["kernels.apply_calls"] = float(span("kernels.apply_us").calls)
    out["kernels.apply_fallbacks"] = float(
        span("kernels.apply_fallbacks").calls)
    walks = span("core.signal_register_us").calls
    out["kernels.apply_fastpath_share"] = (
        span("kernels.register_fastpath").calls / walks if walks else 0.0)
    out["network.publish_calls"] = float(span("network.publish_us").calls)
    out["network.db_refresh_calls"] = float(
        span("network.db_refresh_us").calls)

    # -- simulation / analysis -----------------------------------------
    requests = span("core.admit_us").calls
    out["simulation.run_self_us"] = (
        span("simulation.run_us").self_ns / requests / 1e3
        if span("simulation.run_us").calls else 0.0)
    out["simulation.scenario_gen_s"] = input_build_s if is_cell else 0.0
    out["analysis.ft_assess_calls"] = float(
        span("analysis.ft_assess_us").calls)
    out["analysis.ft_share"] = span("analysis.ft_assess_us").total_ns / wall_ns
    out["faults.sample_hop_calls"] = float(span("faults.sample_hop_us").calls)
    out["loadmodel.timeline_build_s"] = 0.0 if is_cell else input_build_s

    # -- the harness itself --------------------------------------------
    admits = untraced.sorted_ms("admit")
    out["client.admit_p99_ms"] = percentile(admits, 99.0)
    out["client.admit_max_ms"] = admits[-1]
    out["client.pipelined_admit_p50_ms"] = (
        percentile(admits, 50.0) if untraced.workload == MESH8 else 0.0)
    out["client.cpu_share"] = traced.client_cpu_s / traced.wall_s
    # Each rate in its own run's host-normalised time: the two runs are
    # seconds apart, and this host's speed is not the same twice.
    out["trace.overhead_share"] = 1.0 - (
        (traced.ops / traced.wall_s * traced.host_speed)
        / (untraced.ops / untraced.wall_s * untraced.host_speed))
    out["trace.unattributed_share"] = 1.0 - root_ns(traced.spans) / wall_ns
    out["trace.spans"] = float(len(traced.spans))
    out["host.speed"] = traced.host_speed
    out[PROBE_SPAN] = traced.host_speed * HostProbe.REFERENCE_NS / 1e3
    out["host.calibration_s"] = host["calibration_s"]
    out["host.nproc"] = float(host["nproc"])
    return out
