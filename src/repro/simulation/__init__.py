"""Discrete-event simulation: engine, workloads, scenarios, replay."""

from .engine import Engine, SimulationError
from .rng import derive_seed, seeded_rng
from .arrivals import HoldingTimeDistribution, PoissonArrivalProcess
from .workload import (
    BandwidthClass,
    BandwidthMix,
    HotspotTraffic,
    TrafficPattern,
    UniformTraffic,
    make_pattern,
)
from .scenario import LinkEvent, Scenario, generate_scenario
from .snapshots import snapshot_times
from .simulator import Observer, ScenarioSimulator, SimulationResult

__all__ = [
    "Engine",
    "SimulationError",
    "derive_seed",
    "seeded_rng",
    "HoldingTimeDistribution",
    "PoissonArrivalProcess",
    "TrafficPattern",
    "UniformTraffic",
    "HotspotTraffic",
    "make_pattern",
    "BandwidthClass",
    "BandwidthMix",
    "Scenario",
    "LinkEvent",
    "generate_scenario",
    "snapshot_times",
    "Observer",
    "ScenarioSimulator",
    "SimulationResult",
]
