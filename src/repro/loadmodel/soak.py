"""Long-horizon churn driver: the engine behind ``repro soak``.

The soak loop is deliberately *not* the scenario simulator: a scenario
materializes every request up front and pre-schedules every arrival in
the event heap, which is exactly the memory profile a 10^6-admission
run cannot afford.  Here requests *stream* from a
:class:`~repro.loadmodel.trace.ProductionTraceGenerator`, only the
departures of currently-live connections sit in a heap (bounded by the
steady-state population), and all measurement is windowed: per-window
aggregates, streaming latency moments, a fixed-size latency reservoir,
and RSS samples — nothing grows with the admission count.

The decision stream itself is digested into a running SHA-256 so two
runs can be compared bit-for-bit without either retaining 10^6
records; the determinism tests rely on this fingerprint.
"""

from __future__ import annotations

import hashlib
import heapq
import random
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..analysis.streaming import Reservoir, StreamingMoments
from ..core.service import DRTPService
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
        return {
            "index": self.index,
            "admissions": self.admissions,
            "accepted": self.accepted,
            "sim_time": round(self.sim_time, 3),
            "active": self.active,
            "rss_bytes": self.rss_bytes,
            "wall_seconds": round(self.wall_seconds, 3),
            "admissions_per_second": round(self.admissions_per_second, 1),
        }


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
        return {
            "admissions": self.admissions,
            "accepted": self.accepted,
            "acceptance_ratio": round(self.acceptance_ratio, 4),
            "releases": self.releases,
            "final_active": self.final_active,
            "sim_time": round(self.sim_time, 1),
            "wall_seconds": round(self.wall_seconds, 2),
            "admissions_per_second": round(self.admissions_per_second, 1),
            "peak_rss_bytes": self.peak_rss_bytes,
            "decision_checksum": self.decision_checksum,
            "windows": self.windows,
            "connections": self.connections,
            "latency": self.latency,
            "latency_quantiles": self.latency_quantiles,
        }


class SoakEngine:
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
        departures: List[Tuple[float, int]] = []
        checksum = hashlib.sha256()
        latency = StreamingMoments()
        reservoir = Reservoir(self.reservoir_capacity, random.Random(0))
        windows: List[Dict[str, Any]] = []
        accepted = 0
        releases = 0
        sim_time = 0.0
        window_accepted = 0
        window_started = perf_counter()
        run_started = window_started

        for admissions in range(1, max_admissions + 1):
            request = next(self.generator)
            sim_time = request.arrival_time
            while departures and departures[0][0] <= sim_time:
                _, connection_id = heapq.heappop(departures)
                # A failure campaign may have torn the connection down.
                if service.has_connection(connection_id):
                    service.release(connection_id)
                    releases += 1
            started = perf_counter()
            decision = service.admit(request)
            elapsed = perf_counter() - started
            latency.push(elapsed)
            reservoir.push(elapsed)
            checksum.update(
                "{}:{}\n".format(
                    request.request_id, int(decision.accepted)
                ).encode()
            )
            if decision.accepted:
                accepted += 1
                window_accepted += 1
                heapq.heappush(
                    departures,
                    (request.arrival_time + request.holding_time,
                     request.request_id),
                )
            if admissions % self.window == 0:
                now = perf_counter()
                stats = WindowStats(
                    index=len(windows),
                    admissions=self.window,
                    accepted=window_accepted,
                    sim_time=sim_time,
                    active=service.active_connection_count,
                    rss_bytes=current_rss_bytes(),
                    wall_seconds=now - window_started,
                )
                windows.append(stats.to_dict())
                if self.progress is not None:
                    self.progress(stats)
                window_accepted = 0
                window_started = now

        wall = perf_counter() - run_started
        return SoakReport(
            admissions=max_admissions,
            accepted=accepted,
            releases=releases,
            final_active=service.active_connection_count,
            sim_time=sim_time,
            wall_seconds=wall,
            peak_rss_bytes=peak_rss_bytes(),
            decision_checksum=checksum.hexdigest(),
            windows=windows,
            connections=service.connection_store_stats(),
            latency=latency.as_dict(),
            latency_quantiles=reservoir.as_dict(),
        )
