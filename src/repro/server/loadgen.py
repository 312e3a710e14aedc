"""Deterministic async load generator for the control-plane server.

The generator does not improvise: it first *builds a timeline* — every
admission (Poisson arrivals, uniform endpoints, uniform hold times),
every departure, and every link flap from an optional
:class:`~repro.faults.plan.FaultPlan` — entirely from named seeded RNG
streams, then replays that timeline against the server over one
pipelined connection.  Because connection ids equal client-chosen
request ids and the server answers each connection's requests in
arrival order, the *same timeline* replayed directly against a
:class:`~repro.core.service.DRTPService`
(:func:`run_sequential_reference`) must reach the same decisions —
the differential check the loadtest CLI and CI smoke job enforce.

``time_scale`` maps virtual timeline seconds to wall seconds; ``0``
(the default for benchmarking) replays as fast as the pipe allows,
keeping at most ``max_inflight`` requests outstanding.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..faults.injector import (
    BURST_DOWN,
    BURST_UP,
    FLAP_DOWN,
    FLAP_UP,
    REGIONAL_DOWN,
    REGIONAL_UP,
    FaultInjector,
)
from ..faults.plan import FaultPlan
from ..loadmodel.drift import DriftingHotspotTraffic, DriftParameters
from ..loadmodel.mmpp import MMPPArrivalProcess, MMPPParameters
from ..simulation.arrivals import (
    HoldingTimeDistribution,
    PoissonArrivalProcess,
)
from ..simulation.rng import derive_seed, seeded_rng
from . import ops, protocol

__all__ = [
    "LoadGenConfig",
    "TimelineEvent",
    "build_timeline",
    "fetch_status",
    "LoadGenerator",
    "LoadReport",
    "run_sequential_reference",
]


async def fetch_status(
    *,
    socket_path: Optional[str] = None,
    host: Optional[str] = None,
    port: Optional[int] = None,
) -> Dict[str, Any]:
    """One-shot ``status`` query — how a client learns the topology
    dimensions it needs to build a timeline."""
    if socket_path is not None:
        reader, writer = await asyncio.open_unix_connection(socket_path)
    else:
        reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write(protocol.encode_request("status", {}, request_id=0))
        await writer.drain()
        line = await reader.readline()
        if not line:
            raise ConnectionError("server closed before answering status")
        _, ok, body = protocol.decode_response(line.decode())
        if not ok:
            raise ConnectionError(
                "status query failed: {}".format(body.get("message", "?"))
            )
        return body
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass


@dataclass(frozen=True)
class LoadGenConfig:
    """Everything that determines the timeline, and nothing else."""

    arrival_rate: float = 40.0      # requests per virtual second
    duration: float = 60.0          # virtual seconds
    hold_min: float = 2.0           # virtual seconds
    hold_max: float = 6.0
    bw_req: float = 1.0
    master_seed: int = 0
    fault_plan: Optional[FaultPlan] = None
    #: "poisson" (the paper's process, uniform endpoints) or
    #: "production" (MMPP arrivals + drifting hot-spot endpoints from
    #: :mod:`repro.loadmodel`); both build fully pre-sampled timelines,
    #: so the sequential-reference verify works identically.
    workload: str = "poisson"
    mmpp: Optional[MMPPParameters] = None
    drift: Optional[DriftParameters] = None

    def __post_init__(self) -> None:
        if self.arrival_rate <= 0:
            raise ValueError("arrival_rate must be positive")
        if self.duration <= 0:
            raise ValueError("duration must be positive")
        if self.hold_min <= 0 or self.hold_max < self.hold_min:
            raise ValueError(
                "invalid hold-time range [{}, {}]".format(
                    self.hold_min, self.hold_max
                )
            )
        if self.bw_req <= 0:
            raise ValueError("bw_req must be positive")
        if self.workload not in ("poisson", "production"):
            raise ValueError(
                "workload must be 'poisson' or 'production', got "
                "{!r}".format(self.workload)
            )

    def production_mmpp(self) -> MMPPParameters:
        """The MMPP driving a production timeline: explicit parameters
        or a bursty default whose sojourns fit the test duration
        (quarter-duration calm phases, one-twelfth bursts) so short
        loadtests still see several regime flips."""
        if self.mmpp is not None:
            return self.mmpp
        return MMPPParameters.bursty(
            self.arrival_rate,
            calm_mean=self.duration / 4.0,
            burst_mean=self.duration / 12.0,
        )

    def production_drift(self, num_nodes: int) -> DriftParameters:
        """The drift clock for a production timeline: explicit
        parameters or a default that migrates a 10-node (or smaller)
        hot set every sixth of the duration."""
        if self.drift is not None:
            return self.drift
        return DriftParameters(
            hot_count=min(10, num_nodes - 1),
            epoch_seconds=self.duration / 6.0,
        )


@dataclass(frozen=True)
class TimelineEvent:
    """One scheduled protocol operation."""

    time: float
    op: str
    args: Dict[str, Any]


class _TopologyCounts:
    """Duck-typed stand-in for a Network when only the counts matter
    (uncorrelated fault schedules)."""

    def __init__(self, num_nodes: int, num_links: int) -> None:
        self.num_nodes = num_nodes
        self.num_links = num_links


def build_timeline(
    config: LoadGenConfig,
    num_nodes: int,
    num_links: int,
    network=None,
    risk_groups=None,
) -> List[TimelineEvent]:
    """Pre-sample the full operation sequence, sorted by virtual time.

    ``network`` is only needed when the fault plan uses *correlated*
    failure bursts (they pick the links of one switch) or regional
    neighborhood cuts (they flood-fill the topology); link flaps and
    uncorrelated bursts are sampled from the counts alone, which a
    client can learn from the server's ``status`` op.  ``risk_groups``
    (a :class:`~repro.topology.srlg.RiskGroupSet`) is additionally
    required for regional faults in ``srlg`` mode — pass it alongside
    the network (e.g. ``loadtest --topology --srlg``).
    """
    if num_nodes < 2:
        raise ValueError("need at least 2 nodes to route between")
    events: List[Tuple[float, int, TimelineEvent]] = []
    order = 0

    if config.workload == "production":
        arrival_iter = MMPPArrivalProcess(
            config.production_mmpp(),
            seeded_rng(config.master_seed, "loadgen", "arrivals"),
            seeded_rng(config.master_seed, "loadgen", "phases"),
        ).arrival_times(config.duration)
        pattern: Optional[DriftingHotspotTraffic] = DriftingHotspotTraffic(
            num_nodes,
            config.production_drift(num_nodes),
            derive_seed(config.master_seed, "loadgen"),
        )
    else:
        arrival_iter = PoissonArrivalProcess(
            config.arrival_rate,
            seeded_rng(config.master_seed, "loadgen", "arrivals"),
        ).arrival_times(config.duration)
        pattern = None
    endpoints = seeded_rng(config.master_seed, "loadgen", "endpoints")
    holds = HoldingTimeDistribution(config.hold_min, config.hold_max)
    hold_rng = seeded_rng(config.master_seed, "loadgen", "holds")

    request_id = 0
    for arrival in arrival_iter:
        if pattern is not None:
            source, destination = pattern.sample_pair_at(endpoints, arrival)
        else:
            source = endpoints.randrange(num_nodes)
            destination = endpoints.randrange(num_nodes - 1)
            if destination >= source:
                destination += 1
        hold = holds.sample(hold_rng)
        events.append((arrival, order, TimelineEvent(
            time=arrival,
            op="admit",
            args={
                "source": source,
                "destination": destination,
                "bw": config.bw_req,
                "hold": hold,
                "request_id": request_id,
            },
        )))
        order += 1
        departure = arrival + hold
        if departure <= config.duration:
            # Released via the admit's request id — connection ids
            # equal request ids, so no response round-trip is needed
            # before the release can be pipelined.
            events.append((departure, order, TimelineEvent(
                time=departure,
                op="release",
                args={"connection": request_id},
            )))
            order += 1
        request_id += 1

    plan = config.fault_plan
    if plan is not None and (
        plan.flaps.enabled or plan.bursts.enabled or plan.regional.enabled
    ):
        if network is None:
            if plan.bursts.enabled and plan.bursts.correlated:
                raise ValueError(
                    "correlated failure bursts need the real topology; "
                    "pass network= (e.g. loadtest --topology)"
                )
            if plan.regional.enabled:
                raise ValueError(
                    "regional faults need the real topology; pass "
                    "network= (e.g. loadtest --topology)"
                )
            network = _TopologyCounts(num_nodes, num_links)
        if (
            plan.regional.enabled
            and plan.regional.mode == "srlg"
            and risk_groups is None
        ):
            raise ValueError(
                "regional faults in 'srlg' mode need a risk-group "
                "assignment; pass risk_groups= (e.g. loadtest --srlg or "
                "a topology file with an srlg section)"
            )
        injector = FaultInjector(
            plan, seed=derive_seed(config.master_seed, "loadgen", "faults")
        )
        kind_to_op = {
            FLAP_DOWN: "fail_link", BURST_DOWN: "fail_link",
            REGIONAL_DOWN: "fail_link",
            FLAP_UP: "repair_link", BURST_UP: "repair_link",
            REGIONAL_UP: "repair_link",
        }
        for fault in injector.schedule(
            network, config.duration, risk_groups=risk_groups
        ):
            op = kind_to_op.get(fault.kind)
            if op is None:
                continue  # staleness windows are a simulator concern
            for link in fault.links:
                events.append((fault.time, order, TimelineEvent(
                    time=fault.time, op=op, args={"link": link},
                )))
                order += 1

    events.sort(key=lambda item: (item[0], item[1]))
    return [event for _, _, event in events]


@dataclass
class LoadReport:
    """What one load-generation run observed."""

    events: int = 0
    responses: int = 0
    admits: int = 0
    accepted: int = 0
    rejected: int = 0
    releases: int = 0
    released: int = 0
    fail_links: int = 0
    repair_links: int = 0
    protocol_errors: Dict[str, int] = field(default_factory=dict)
    #: Admission outcomes in request-id order (1 accepted, 0 rejected)
    #: — the byte-comparable decision trace.
    decisions: List[int] = field(default_factory=list)
    wall_seconds: float = 0.0
    final_status: Dict[str, Any] = field(default_factory=dict)
    prometheus: str = ""

    @property
    def acceptance_ratio(self) -> float:
        if self.admits == 0:
            return 0.0
        return self.accepted / self.admits

    @property
    def requests_per_second(self) -> float:
        if self.wall_seconds <= 0:
            return 0.0
        return self.responses / self.wall_seconds

    @property
    def protocol_error_total(self) -> int:
        return sum(self.protocol_errors.values())

    def to_dict(self) -> Dict[str, Any]:
        return {
            "events": self.events,
            "responses": self.responses,
            "admits": self.admits,
            "accepted": self.accepted,
            "rejected": self.rejected,
            "acceptance_ratio": self.acceptance_ratio,
            "releases": self.releases,
            "released": self.released,
            "fail_links": self.fail_links,
            "repair_links": self.repair_links,
            "protocol_errors": dict(self.protocol_errors),
            "protocol_error_total": self.protocol_error_total,
            "wall_seconds": self.wall_seconds,
            "requests_per_second": self.requests_per_second,
            "decisions": list(self.decisions),
            "final_status": self.final_status,
        }


class LoadGenerator:
    """Replay a timeline against a live server over one connection."""

    def __init__(
        self,
        timeline: List[TimelineEvent],
        *,
        socket_path: Optional[str] = None,
        host: Optional[str] = None,
        port: Optional[int] = None,
        time_scale: float = 0.0,
        max_inflight: int = 64,
    ) -> None:
        if (socket_path is None) == (host is None):
            raise ValueError(
                "exactly one of socket_path or host must be given"
            )
        if time_scale < 0:
            raise ValueError("time_scale must be >= 0")
        if max_inflight < 1:
            raise ValueError("max_inflight must be >= 1")
        self.timeline = timeline
        self.socket_path = socket_path
        self.host = host
        self.port = port
        self.time_scale = time_scale
        self.max_inflight = max_inflight

    async def _connect(self):
        if self.socket_path is not None:
            return await asyncio.open_unix_connection(self.socket_path)
        return await asyncio.open_connection(self.host, self.port)

    async def run(self) -> LoadReport:
        report = LoadReport()
        reader, writer = await self._connect()
        inflight = asyncio.Semaphore(self.max_inflight)
        pending: Dict[int, TimelineEvent] = {}
        decisions: Dict[int, int] = {}
        reader_done = asyncio.Event()

        async def read_responses() -> None:
            try:
                while True:
                    line = await reader.readline()
                    if not line:
                        return
                    rid, ok, body = protocol.decode_response(line.decode())
                    report.responses += 1
                    event = pending.pop(rid, None)
                    if not ok:
                        kind = body.get("type", "unknown")
                        report.protocol_errors[kind] = (
                            report.protocol_errors.get(kind, 0) + 1
                        )
                    elif event is not None:
                        _tally(report, decisions, event, body)
                    inflight.release()
            finally:
                reader_done.set()
                # The generator may be parked in inflight.acquire()
                # with the window full; a server that went away will
                # never answer, so hand over one permit to let it wake
                # up, observe reader_done, and stop generating.
                inflight.release()

        # Encode the whole timeline before the clock starts so the
        # replay loop spends its (shared, single) core on the server's
        # work, not on JSON serialization.
        wire = [
            protocol.encode_request(event.op, event.args, request_id=seq)
            for seq, event in enumerate(self.timeline)
        ]
        reader_task = asyncio.ensure_future(read_responses())
        started = time.monotonic()
        try:
            for seq, event in enumerate(self.timeline):
                if reader_done.is_set():
                    break  # server went away; stop generating
                if self.time_scale > 0:
                    target = started + event.time * self.time_scale
                    delay = target - time.monotonic()
                    if delay > 0:
                        await asyncio.sleep(delay)
                await inflight.acquire()
                if reader_done.is_set():
                    break  # woken by the reader's EOF, not a response
                pending[seq] = event
                report.events += 1
                writer.write(wire[seq])
                # The inflight window already bounds the unanswered
                # backlog; drain only periodically to batch syscalls.
                if seq % 32 == 31 or self.time_scale > 0:
                    await writer.drain()
            await writer.drain()
            # Wait for every outstanding response (or server exit).
            for _ in range(self.max_inflight):
                if reader_done.is_set():
                    break
                await inflight.acquire()
            report.wall_seconds = time.monotonic() - started
            if not reader_done.is_set():
                # Every pipelined response is in; retire the background
                # reader so the epilogue reads below own the stream.
                reader_task.cancel()
                try:
                    await reader_task
                except (asyncio.CancelledError, Exception):
                    pass
                report.final_status = await self._read_op(
                    reader, writer, "status", {}
                )
                metrics = await self._read_op(
                    reader, writer, "metrics", {"format": "prometheus"}
                )
                report.prometheus = metrics.get("body", "")
        finally:
            reader_task.cancel()
            try:
                await reader_task
            except (asyncio.CancelledError, Exception):
                pass
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass
        report.decisions = [
            decisions[rid] for rid in sorted(decisions)
        ]
        return report

    @staticmethod
    async def _read_op(reader, writer, op: str,
                       args: Dict[str, Any]) -> Dict[str, Any]:
        writer.write(protocol.encode_request(op, args, request_id=op))
        await writer.drain()
        line = await reader.readline()
        if not line:
            return {}
        _, ok, body = protocol.decode_response(line.decode())
        return body if ok else {}


def _tally(report: LoadReport, decisions: Dict[int, int],
           event: TimelineEvent, body: Dict[str, Any]) -> None:
    if event.op == "admit":
        report.admits += 1
        accepted = bool(body.get("accepted"))
        if accepted:
            report.accepted += 1
        else:
            report.rejected += 1
        decisions[event.args["request_id"]] = int(accepted)
    elif event.op == "release":
        report.releases += 1
        if body.get("released"):
            report.released += 1
    elif event.op == "fail_link":
        report.fail_links += 1
    elif event.op == "repair_link":
        report.repair_links += 1


def run_sequential_reference(service, timeline) -> Dict[str, Any]:
    """Replay a timeline directly on a :class:`DRTPService`.

    The in-process twin of what the server does for a single pipelined
    client: the same :mod:`repro.server.ops` commits in the same order
    (releases of departed connections are no-ops, repairs are
    idempotent), tallied as a live run tallies its answers, so the
    decision trace is *exactly* the server's.
    """
    report = LoadReport()
    decisions: Dict[int, int] = {}
    for event in timeline:
        if event.op == "admit":
            body = ops.apply_admit(service, event.args)
        elif event.op == "release":
            body = ops.apply_release(service, event.args["connection"])
        elif event.op == "fail_link":
            body = ops.apply_fail_link(service, event.args["link"])
        elif event.op == "repair_link":
            body = ops.apply_repair_link(service, event.args["link"])
        else:  # pragma: no cover - timeline only holds the four ops
            raise ValueError("unexpected op {!r}".format(event.op))
        _tally(report, decisions, event, body)
    return {
        "admits": report.admits,
        "accepted": report.accepted,
        "acceptance_ratio": report.acceptance_ratio,
        "decisions": [decisions[rid] for rid in sorted(decisions)],
        "counters": {
            "requests": service.counters.requests,
            "accepted": service.counters.accepted,
            "released": service.counters.released,
        },
    }
