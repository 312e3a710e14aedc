"""Production-trace generation: streaming and materializable.

Two views of the same trace, byte-identical given one seed:

* :class:`ProductionTraceGenerator` — an *unbounded iterator* of
  :class:`~repro.core.connection.ConnectionRequest`; the soak engine
  consumes this so a 10^6-admission run never materializes its
  request list;
* :func:`generate_production_scenario` — the sequential reference: a
  bounded prefix materialized as an ordinary
  :class:`~repro.simulation.scenario.Scenario`, so production traces
  flow through the existing replay/trace/campaign machinery and
  scenario files unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Union

from ..core.connection import ConnectionRequest
from ..simulation.arrivals import HoldingTimeDistribution
from ..simulation.rng import seeded_rng
from ..simulation.scenario import Scenario
from ..simulation.workload import BandwidthMix
from .drift import DriftingHotspotTraffic, DriftParameters
from .mmpp import MMPPArrivalProcess, MMPPParameters


@dataclass(frozen=True)
class ProductionTraceConfig:
    """Everything that determines a production trace, and nothing else."""

    num_nodes: int
    mmpp: MMPPParameters = field(default_factory=MMPPParameters)
    drift: DriftParameters = field(default_factory=DriftParameters)
    holding: HoldingTimeDistribution = field(
        default_factory=HoldingTimeDistribution
    )
    bw_req: Union[float, BandwidthMix] = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_nodes < 2:
            raise ValueError("a trace needs at least 2 nodes")
        if isinstance(self.bw_req, (int, float)) and self.bw_req <= 0:
            raise ValueError("bw_req must be positive")

    @property
    def bandwidth_mix(self) -> BandwidthMix:
        """The bandwidth distribution as a mix (constants wrapped)."""
        if isinstance(self.bw_req, BandwidthMix):
            return self.bw_req
        return BandwidthMix.constant(self.bw_req)

    def expected_offered_load(self) -> float:
        """Little's-law steady-state concurrent-connection estimate."""
        return self.mmpp.mean_rate * self.holding.mean


class ProductionTraceGenerator:
    """Unbounded iterator of production-trace connection requests.

    Draws from five named streams derived from the config seed
    (arrivals, phases, endpoints, holding, bandwidth), mirroring
    :func:`~repro.simulation.scenario.generate_scenario`'s stream
    discipline so any knob changes without perturbing the others.
    """

    def __init__(self, config: ProductionTraceConfig) -> None:
        self.config = config
        seed = config.seed
        self._endpoint_rng = seeded_rng(seed, "loadmodel", "endpoints")
        self._holding_rng = seeded_rng(seed, "loadmodel", "holding")
        self._bw_rng = seeded_rng(seed, "loadmodel", "bandwidth")
        self._process = MMPPArrivalProcess(
            config.mmpp,
            seeded_rng(seed, "loadmodel", "arrivals"),
            seeded_rng(seed, "loadmodel", "phases"),
        )
        self._pattern = DriftingHotspotTraffic(
            config.num_nodes, config.drift, seed
        )
        self._mix = config.bandwidth_mix
        self._next_id = 0

    def __iter__(self) -> Iterator[ConnectionRequest]:
        return self

    def __next__(self) -> ConnectionRequest:
        arrival = self._process.next_arrival()
        source, destination = self._pattern.sample_pair_at(
            self._endpoint_rng, arrival
        )
        request = ConnectionRequest(
            request_id=self._next_id,
            source=source,
            destination=destination,
            bw_req=self._mix.sample(self._bw_rng),
            arrival_time=arrival,
            holding_time=self.config.holding.sample(self._holding_rng),
        )
        self._next_id += 1
        return request

    def take(self, count: int) -> List[ConnectionRequest]:
        """Materialize the next ``count`` requests."""
        if count < 0:
            raise ValueError("count must be non-negative")
        return [next(self) for _ in range(count)]

    @property
    def current_phase(self) -> int:
        """The MMPP phase of the last generated arrival."""
        return self._process.current_phase


def generate_production_scenario(
    config: ProductionTraceConfig,
    max_requests: Optional[int] = None,
    duration: Optional[float] = None,
) -> Scenario:
    """Materialize a bounded production-trace prefix as a Scenario.

    Bound by request count, by horizon, or both (whichever cuts
    first); at least one bound is required.  The result is a plain
    scenario file — replayable, traceable, campaign-feedable — whose
    request list is byte-identical to streaming the same config
    through :class:`ProductionTraceGenerator`.
    """
    if max_requests is None and duration is None:
        raise ValueError(
            "bound the scenario with max_requests, duration, or both"
        )
    if max_requests is not None and max_requests <= 0:
        raise ValueError("max_requests must be positive")
    if duration is not None and duration <= 0:
        raise ValueError("duration must be positive")
    generator = ProductionTraceGenerator(config)
    requests: List[ConnectionRequest] = []
    while max_requests is None or len(requests) < max_requests:
        request = next(generator)
        if duration is not None and request.arrival_time > duration:
            break
        requests.append(request)
    horizon = duration
    if horizon is None:
        horizon = math.ceil(requests[-1].arrival_time) if requests else 0.0
    mix = config.bandwidth_mix
    return Scenario(
        requests=requests,
        duration=float(horizon),
        metadata={
            "workload": "production",
            "seed": config.seed,
            "num_nodes": config.num_nodes,
            "mmpp_rates": list(config.mmpp.rates),
            "mmpp_sojourn_means": list(config.mmpp.sojourn_means),
            "mean_rate": config.mmpp.mean_rate,
            "hot_count": config.drift.hot_count,
            "hot_fraction": config.drift.hot_fraction,
            "drift_epoch_seconds": config.drift.epoch_seconds,
            "drift_migrate": config.drift.migrate,
            "bw_req": mix.mean_bw,
            "holding_min": config.holding.minimum,
            "holding_max": config.holding.maximum,
        },
    )
