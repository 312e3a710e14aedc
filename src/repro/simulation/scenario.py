"""Scenario files — record once, replay under every scheme.

Section 6.1: "we use scenario files to record the connection request
and release events under various bw_req and lambda values, and compare
the performance of the proposed schemes by simulating them using the
same scenario file."  (The authors generated theirs with Matlab and
simulated with ns; here both halves are Python, and the files are
JSON.)

A scenario is the full list of connection requests — arrival instant,
endpoints, bandwidth, holding time — plus the generation metadata
needed to regenerate it bit-for-bit from the seed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Union

from ..core.connection import ConnectionRequest
from .arrivals import HoldingTimeDistribution, PoissonArrivalProcess
from .rng import seeded_rng
from .workload import BandwidthMix, TrafficPattern, make_pattern

_FORMAT_VERSION = 1


@dataclass(frozen=True)
class LinkEvent:
    """A scheduled persistent failure or repair of one link."""

    time: float
    link_id: int
    action: str  # "fail" | "repair"

    def __post_init__(self) -> None:
        if self.action not in ("fail", "repair"):
            raise ValueError("action must be 'fail' or 'repair'")
        if self.time < 0:
            raise ValueError("event time must be non-negative")


@dataclass
class Scenario:
    """An immutable-by-convention request trace, optionally with a
    schedule of link failures/repairs (for failure-injection runs).

    ``requests`` must come in arrival order; the replay checks that as
    it pulls them, so a streamed iterator serves as well as a list.
    ``duration=None`` means no horizon: the replay ends right after the
    last arrival."""

    requests: Iterable[ConnectionRequest]
    duration: Optional[float]
    metadata: Dict[str, Any] = field(default_factory=dict)
    link_events: List[LinkEvent] = field(default_factory=list)

    @property
    def num_requests(self) -> int:
        return len(self.requests)

    @property
    def arrival_rate(self) -> float:
        """Empirical arrival rate over the scenario horizon."""
        if self.duration <= 0:
            return 0.0
        return self.num_requests / self.duration

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        return {
            "version": _FORMAT_VERSION,
            "duration": self.duration,
            "metadata": self.metadata,
            "link_events": [
                {"time": e.time, "link": e.link_id, "action": e.action}
                for e in self.link_events
            ],
            "requests": [
                {
                    "id": request.request_id,
                    "src": request.source,
                    "dst": request.destination,
                    "bw": request.bw_req,
                    "arrival": request.arrival_time,
                    "holding": request.holding_time,
                }
                for request in self.requests
            ],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Scenario":
        if data.get("version") != _FORMAT_VERSION:
            raise ValueError(
                "unsupported scenario version {!r}".format(data.get("version"))
            )
        requests = [
            ConnectionRequest(
                request_id=entry["id"],
                source=entry["src"],
                destination=entry["dst"],
                bw_req=entry["bw"],
                arrival_time=entry["arrival"],
                holding_time=entry["holding"],
            )
            for entry in data["requests"]
        ]
        return cls(
            requests=requests,
            duration=data["duration"],
            metadata=dict(data.get("metadata", {})),
            link_events=[
                LinkEvent(
                    time=entry["time"],
                    link_id=entry["link"],
                    action=entry["action"],
                )
                for entry in data.get("link_events", [])
            ],
        )

    def save(self, path: Union[str, Path]) -> None:
        Path(path).write_text(json.dumps(self.to_dict()))

    @classmethod
    def load(cls, path: Union[str, Path]) -> "Scenario":
        return cls.from_dict(json.loads(Path(path).read_text()))


def generate_scenario(
    num_nodes: int,
    arrival_rate: float,
    duration: float,
    bw_req: Union[float, BandwidthMix] = 1.0,
    pattern: Union[str, TrafficPattern] = "UT",
    holding: Optional[HoldingTimeDistribution] = None,
    seed: int = 0,
) -> Scenario:
    """Generate a Poisson request trace.

    ``bw_req`` is either the paper's constant per-connection bandwidth
    or a :class:`~repro.simulation.workload.BandwidthMix` for
    heterogeneous (audio/video-style) workloads.

    Independent random streams (see :mod:`repro.simulation.rng`) drive
    arrivals, endpoint sampling, hot-node pre-selection, lifetimes and
    bandwidth classes, so any single knob can change without
    perturbing the others.
    """
    holding = holding or HoldingTimeDistribution()
    if isinstance(pattern, str):
        pattern = make_pattern(
            pattern, num_nodes, selection_rng=seeded_rng(seed, "hotspots")
        )
    mix = (
        bw_req
        if isinstance(bw_req, BandwidthMix)
        else BandwidthMix.constant(bw_req)
    )
    arrival_rng = seeded_rng(seed, "arrivals")
    endpoint_rng = seeded_rng(seed, "endpoints")
    holding_rng = seeded_rng(seed, "holding")
    bw_rng = seeded_rng(seed, "bandwidth")

    process = PoissonArrivalProcess(arrival_rate, arrival_rng)
    requests: List[ConnectionRequest] = []
    for request_id, arrival in enumerate(process.arrival_times(duration)):
        source, destination = pattern.sample_pair(endpoint_rng)
        requests.append(
            ConnectionRequest(
                request_id=request_id,
                source=source,
                destination=destination,
                bw_req=mix.sample(bw_rng),
                arrival_time=arrival,
                holding_time=holding.sample(holding_rng),
            )
        )
    return Scenario(
        requests=requests,
        duration=duration,
        metadata={
            "seed": seed,
            "num_nodes": num_nodes,
            "arrival_rate": arrival_rate,
            "bw_req": mix.mean_bw,
            "bw_classes": [
                {"name": c.name, "bw": c.bw, "weight": c.weight}
                for c in mix.classes
            ],
            "pattern": pattern.name,
            "holding_min": holding.minimum,
            "holding_max": holding.maximum,
        },
    )
