"""ScenarioSimulator — replay a request trace against a DRTP service.

The simulator is the glue between a :class:`~repro.simulation.scenario.Scenario`
(what happens) and a :class:`~repro.core.service.DRTPService` (who
handles it): arrivals become admission attempts, accepted connections
get departure events, and at scheduled snapshot instants the attached
observers measure whatever they care about (fault tolerance, load,
spare overhead ...).

Replaying the *same* scenario against services that differ only in
routing scheme is the paper's comparison methodology; determinism end
to end (seeded scenario, deterministic routing tie-breaks, FIFO event
ordering) makes those comparisons exact.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.service import DRTPService
from .engine import Engine
from .scenario import Scenario
from .snapshots import snapshot_times


class Observer(abc.ABC):
    """Measurement hook invoked at every snapshot instant."""

    @abc.abstractmethod
    def on_snapshot(self, service: DRTPService, time: float) -> None:
        """Inspect (never mutate) the service state."""


@dataclass
class SimulationResult:
    """Summary of one scenario replay."""

    scheme: str
    duration: float
    warmup: float
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
        stale link-state information."""
        self.service = service
        self.scenario = scenario
        self.warmup = warmup if warmup is not None else 0.5 * scenario.duration
        self.snapshot_count = snapshot_count
        self.check_invariants = check_invariants
        if database_refresh_interval is not None and database_refresh_interval <= 0:
            raise ValueError("database_refresh_interval must be positive")
        self.database_refresh_interval = database_refresh_interval

    def run(self, observers: Sequence[Observer] = ()) -> SimulationResult:
        engine = Engine()
        service = self.service
        result = SimulationResult(
            scheme=service.scheme.name,
            duration=self.scenario.duration,
            warmup=self.warmup,
        )

        def arrive(request):
            def action() -> None:
                if service.admit(request).accepted:
                    engine.schedule(request.departure_time, depart(request))
                if self.check_invariants:
                    service.check_invariants()

            return action

        def depart(request):
            def action() -> None:
                # The connection may have died to an injected failure.
                if service.has_connection(request.request_id):
                    service.release(request.request_id)
                if self.check_invariants:
                    service.check_invariants()

            return action

        for request in self.scenario.requests:
            engine.schedule(request.arrival_time, arrive(request))

        for time in snapshot_times(
            self.scenario.duration, self.warmup, self.snapshot_count
        ):
            engine.schedule(time, self._snapshot(engine, observers, result))

        for event in self.scenario.link_events:
            engine.schedule(event.time, self._link_event(event))

        if self.database_refresh_interval is not None:
            interval = self.database_refresh_interval

            def refresh() -> None:
                service.refresh_database()
                if engine.now + interval <= self.scenario.duration:
                    engine.schedule_after(interval, refresh)

            engine.schedule(0.0, refresh)

        engine.run(until=self.scenario.duration)

        counters = service.counters
        result.requests = counters.requests
        result.accepted = counters.accepted
        result.rejected = dict(counters.rejected)
        result.control_messages = counters.control_messages
        result.final_active = service.active_connection_count
        return result

    def _link_event(self, event):
        def action() -> None:
            if event.action == "fail":
                self.service.fail_link(event.link_id, reconfigure=True)
            else:
                self.service.repair_link(event.link_id)
            if self.check_invariants:
                self.service.check_invariants()

        return action

    def _snapshot(self, engine: Engine, observers, result: SimulationResult):
        def action() -> None:
            time = engine.now
            result.active_samples.append(
                (time, self.service.active_connection_count)
            )
            for observer in observers:
                observer.on_snapshot(self.service, time)

        return action
