"""ScenarioSimulator — replay a request stream against a DRTP service.

The simulator is the glue between a :class:`~repro.simulation.scenario.Scenario`
(what happens) and a :class:`~repro.core.service.DRTPService` (who
handles it): arrivals become admission attempts, accepted connections
get departure events, and the attached observers measure whatever they
care about (fault tolerance, load, spare overhead ...).  It is the one
loop from a request stream to service calls — the chaos campaign and
the soak are observers on it — and it pulls arrivals one at a time, so
a streamed scenario stays flat in memory.

Replaying the *same* scenario against services that differ only in
routing scheme is the paper's comparison methodology; determinism end
to end (seeded scenario, deterministic routing tie-breaks, FIFO event
ordering, an arrival ahead of every other event at its instant) makes
those comparisons exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from time import perf_counter
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..core.service import DRTPService
from ..observability import UNTRACED, current_span
from .engine import Engine
from .scenario import Scenario
from .snapshots import snapshot_times


class Observer:
    """Hooks a replay calls; each default does nothing."""

    def on_start(self, engine: Engine) -> None:
        """Before the first event; an event source schedules here."""

    def on_snapshot(self, service: DRTPService, time: float) -> None:
        """Inspect (never mutate) the service state at a snapshot."""

    def on_admission(self, service, request, decision, seconds) -> None:
        """After each admission; ``seconds`` is its wall time."""

    def on_departure(self, service, request) -> None:
        """At each accepted request's departure."""


def step_span(name: str, time: float, **tags: Any):
    """The span a replay action runs in: ``<category>.<name>`` at
    simulated ``time``, a child of the open span when that one is named
    in its own category (``chaos.campaign``), else
    :data:`~repro.observability.UNTRACED` (as under a test's root)."""
    parent = current_span()
    if parent is None or not parent.name.startswith(parent.category + "."):
        return UNTRACED
    return parent.child(
        parent.category + "." + name, parent.category, time=time, **tags
    )


@dataclass
class SimulationResult:
    """Summary of one scenario replay."""

    scheme: str
    duration: Optional[float]
    warmup: Optional[float]
    requests: int = 0
    accepted: int = 0
    rejected: Dict[str, int] = field(default_factory=dict)
    control_messages: int = 0
    active_samples: List[Tuple[float, int]] = field(default_factory=list)
    final_active: int = 0

    @property
    def acceptance_ratio(self) -> float:
        """The paper's "probability of successfully establishing a
        DR-connection", over the whole trace."""
        if self.requests == 0:
            return 0.0
        return self.accepted / self.requests

    @property
    def mean_active_connections(self) -> float:
        """Mean concurrently-active connections over the snapshots —
        the quantity Figure 5's capacity overhead compares."""
        if not self.active_samples:
            return 0.0
        return sum(count for _, count in self.active_samples) / len(
            self.active_samples
        )


class ScenarioSimulator:
    """Drives one service through one scenario."""

    def __init__(
        self,
        service: DRTPService,
        scenario: Scenario,
        warmup: Optional[float] = None,
        snapshot_count: int = 8,
        check_invariants: bool = False,
        database_refresh_interval: Optional[float] = None,
    ) -> None:
        """``database_refresh_interval`` (seconds) schedules periodic
        link-state re-floods for services built with
        ``live_database=False`` — the knob for studying routing under
        stale link-state information.  ``snapshot_count=0`` takes no
        snapshots, nor does a scenario with no horizon, which ends
        right after its last arrival."""
        self.service = service
        self.scenario = scenario
        if warmup is None and scenario.duration is not None:
            warmup = 0.5 * scenario.duration
        self.warmup = warmup
        self.snapshot_count = snapshot_count
        self.check_invariants = check_invariants
        if database_refresh_interval is not None and database_refresh_interval <= 0:
            raise ValueError("database_refresh_interval must be positive")
        self.database_refresh_interval = database_refresh_interval

    def run(self, observers: Sequence[Observer] = ()) -> SimulationResult:
        engine = Engine()
        service = self.service
        horizon = self.scenario.duration
        check = self.check_invariants
        result = SimulationResult(
            scheme=service.scheme.name, duration=horizon, warmup=self.warmup
        )

        def depart(request) -> None:
            # The connection may have died to an injected failure.
            if service.has_connection(request.request_id):
                with step_span("depart", engine.now):
                    service.release(request.request_id)
            if check:
                service.check_invariants()
            for observer in observers:
                observer.on_departure(service, request)

        def snapshot() -> None:
            result.active_samples.append(
                (engine.now, service.active_connection_count)
            )
            for observer in observers:
                observer.on_snapshot(service, engine.now)

        def link_event(event) -> None:
            if event.action == "fail":
                service.fail_link(event.link_id, reconfigure=True)
            else:
                service.repair_link(event.link_id)
            if check:
                service.check_invariants()

        interval = self.database_refresh_interval

        def refresh() -> None:
            service.refresh_database()
            if horizon is None or engine.now + interval <= horizon:
                engine.schedule_after(interval, refresh)

        for observer in observers:
            observer.on_start(engine)
        if horizon is not None and self.snapshot_count:
            for time in snapshot_times(
                horizon, self.warmup, self.snapshot_count
            ):
                engine.schedule(time, snapshot)
        for event in self.scenario.link_events:
            engine.schedule(event.time, partial(link_event, event))
        if interval is not None:
            engine.schedule(0.0, refresh)

        # Arrivals are pulled one at a time; each runs ahead of every
        # other event at its instant.
        for request in self.scenario.requests:
            time = request.arrival_time
            if horizon is not None and time > horizon:
                break
            if time < engine.now:
                raise ValueError(
                    "scenario requests must be sorted by arrival time"
                )
            engine.run(until=time, before=True)
            with step_span("arrive", time):
                started = perf_counter()
                decision = service.admit(request)
                seconds = perf_counter() - started
            if decision.accepted:
                engine.schedule(
                    request.departure_time, partial(depart, request)
                )
            if check:
                service.check_invariants()
            for observer in observers:
                observer.on_admission(service, request, decision, seconds)
        if horizon is not None:
            engine.run(until=horizon)

        counters = service.counters
        result.requests = counters.requests
        result.accepted = counters.accepted
        result.rejected = dict(counters.rejected)
        result.control_messages = counters.control_messages
        result.final_active = service.active_connection_count
        return result
