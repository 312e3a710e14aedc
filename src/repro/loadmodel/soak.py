"""Long-horizon churn driver: the engine behind ``repro soak``.

The soak is an observer on the scenario simulator's one replay loop
(:class:`~repro.simulation.simulator.ScenarioSimulator`).  Requests
*stream* from a
:class:`~repro.loadmodel.trace.ProductionTraceGenerator` into a
scenario with no horizon, which the loop pulls one arrival at a time
and ends right after the last one; only the departures of
currently-live connections sit in its event heap (bounded by the
steady-state population).  All measurement is windowed: per-window
aggregates, streaming latency moments, a fixed-size latency reservoir,
and RSS samples — nothing grows with the admission count.

The decision stream itself is digested into a running SHA-256 so two
runs can be compared bit-for-bit without either retaining 10^6
records; the determinism tests rely on this fingerprint.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import asdict, dataclass, field
from itertools import islice
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional

from ..analysis.streaming import Reservoir, StreamingMoments
from ..core.service import DRTPService
from ..simulation.scenario import Scenario
from ..simulation.simulator import Observer, ScenarioSimulator
from .rss import current_rss_bytes, peak_rss_bytes
from .trace import ProductionTraceGenerator


@dataclass(frozen=True)
class WindowStats:
    """Aggregates for one soak window (a fixed admission count)."""

    index: int
    admissions: int
    accepted: int
    sim_time: float
    active: int
    rss_bytes: int
    wall_seconds: float

    @property
    def admissions_per_second(self) -> float:
        """Wall-clock admission throughput inside this window."""
        if self.wall_seconds <= 0:
            return 0.0
        return self.admissions / self.wall_seconds

    def to_dict(self) -> Dict[str, Any]:
        """JSON-friendly record for the soak report."""
        return dict(
            asdict(self),
            sim_time=round(self.sim_time, 3),
            wall_seconds=round(self.wall_seconds, 3),
            admissions_per_second=round(self.admissions_per_second, 1),
        )


@dataclass
class SoakReport:
    """Everything a soak run proves, in bounded space."""

    admissions: int
    accepted: int
    releases: int
    final_active: int
    sim_time: float
    wall_seconds: float
    peak_rss_bytes: int
    decision_checksum: str
    windows: List[Dict[str, Any]] = field(default_factory=list)
    connections: Dict[str, int] = field(default_factory=dict)
    latency: Dict[str, float] = field(default_factory=dict)
    latency_quantiles: Dict[str, float] = field(default_factory=dict)

    @property
    def acceptance_ratio(self) -> float:
        """Accepted fraction over the whole soak."""
        if self.admissions == 0:
            return 0.0
        return self.accepted / self.admissions

    @property
    def admissions_per_second(self) -> float:
        """Whole-run wall-clock admission throughput."""
        if self.wall_seconds <= 0:
            return 0.0
        return self.admissions / self.wall_seconds

    def to_dict(self) -> Dict[str, Any]:
        """JSON-friendly report (what ``soak.json`` archives)."""
        return dict(
            asdict(self),
            acceptance_ratio=round(self.acceptance_ratio, 4),
            sim_time=round(self.sim_time, 1),
            wall_seconds=round(self.wall_seconds, 2),
            admissions_per_second=round(self.admissions_per_second, 1),
        )


class SoakEngine(Observer):
    """Streams admissions through a service to a target churn count.

    ``window`` is the admission count per measurement window;
    ``progress`` (when given) receives each :class:`WindowStats` as it
    closes — the CLI's live progress line.
    """

    def __init__(
        self,
        service: DRTPService,
        generator: ProductionTraceGenerator,
        window: int = 10_000,
        reservoir_capacity: int = 512,
        progress: Optional[Callable[[WindowStats], None]] = None,
    ) -> None:
        if window <= 0:
            raise ValueError("window must be positive")
        self.service = service
        self.generator = generator
        self.window = window
        self.reservoir_capacity = reservoir_capacity
        self.progress = progress

    def run(self, max_admissions: int) -> SoakReport:
        """Drive churn until ``max_admissions`` admission attempts."""
        if max_admissions <= 0:
            raise ValueError("max_admissions must be positive")
        service = self.service
        counters = service.counters
        before = counters.requests, counters.accepted, counters.released
        self._checksum = hashlib.sha256()
        self._latency = StreamingMoments()
        self._reservoir = Reservoir(self.reservoir_capacity, random.Random(0))
        self._windows: List[Dict[str, Any]] = []
        self._sim_time = 0.0
        #: Wall clock and accepted count when the open window began.
        self._window_wall = started = perf_counter()
        self._window_accepted = counters.accepted

        stream = Scenario(
            requests=islice(self.generator, max_admissions), duration=None
        )
        ScenarioSimulator(service, stream).run(observers=(self,))
        return SoakReport(
            admissions=counters.requests - before[0],
            accepted=counters.accepted - before[1],
            releases=counters.released - before[2],
            final_active=service.active_connection_count,
            sim_time=self._sim_time,
            wall_seconds=perf_counter() - started,
            peak_rss_bytes=peak_rss_bytes(),
            decision_checksum=self._checksum.hexdigest(),
            windows=self._windows,
            connections=service.connection_store_stats(),
            latency=self._latency.as_dict(),
            latency_quantiles=self._reservoir.as_dict(),
        )

    def on_admission(self, service, request, decision, seconds) -> None:
        self._sim_time = request.arrival_time
        self._latency.push(seconds)
        self._reservoir.push(seconds)
        self._checksum.update(
            "{}:{}\n".format(
                request.request_id, int(decision.accepted)
            ).encode()
        )
        if self._latency.count % self.window == 0:
            now, accepted = perf_counter(), service.counters.accepted
            stats = WindowStats(
                index=len(self._windows),
                admissions=self.window,
                accepted=accepted - self._window_accepted,
                sim_time=self._sim_time,
                active=service.active_connection_count,
                rss_bytes=current_rss_bytes(),
                wall_seconds=now - self._window_wall,
            )
            self._windows.append(stats.to_dict())
            if self.progress is not None:
                self.progress(stats)
            self._window_wall, self._window_accepted = now, accepted
