"""Parameter-sweep harness shared by every figure reproduction.

One *cell* of the evaluation = (average degree E, traffic pattern,
arrival rate lambda).  For each cell the harness:

1. builds (or reuses) the degree's Waxman network;
2. generates the cell's scenario file (identical for every scheme);
3. replays it under the no-backup baseline (Figure 5's denominator);
4. replays it under each routing scheme with the fault-tolerance and
   spare-share observers attached.

Figure 4 reads the ``fault_tolerance`` column of the resulting points,
Figure 5 the ``overhead_percent`` column, and the routing-overhead
benchmark the message counters — all from the *same* runs, exactly as
the paper derives all its plots from one simulation campaign.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..analysis.fault_tolerance import FaultToleranceObserver, FaultToleranceStats
from ..analysis.overhead import SpareShareObserver, capacity_overhead_percent
from ..core.multiplexing import SharedSparePolicy, SparePolicy
from ..core.service import DRTPService
from ..routing.base import RoutingScheme
from ..routing.baselines import DisjointBackupScheme, NoBackupScheme, RandomBackupScheme
from ..routing.dlsr import DLSRScheme
from ..routing.flooding import BoundedFloodingScheme
from ..routing.plsr import PLSRScheme
from ..simulation.rng import derive_seed, seeded_rng
from ..simulation.scenario import Scenario, generate_scenario
from ..simulation.simulator import ScenarioSimulator, SimulationResult
from ..simulation.workload import HotspotTraffic, TrafficPattern, UniformTraffic
from .config import (
    DEFAULT_PARAMETERS,
    ExperimentScale,
    QUICK_SCALE,
    Table1Parameters,
    make_network,
)

#: The paper's three schemes, in the order the figures list them.
PAPER_SCHEMES: Tuple[str, ...] = ("D-LSR", "P-LSR", "BF")

#: Baseline identifier used for the no-backup run.
NO_BACKUP = "no-backup"


def make_scheme(
    name: str, parameters: Optional[Table1Parameters] = None
) -> RoutingScheme:
    """Scheme factory by report name."""
    params = parameters or DEFAULT_PARAMETERS
    if name == "P-LSR":
        return PLSRScheme()
    if name == "D-LSR":
        return DLSRScheme()
    if name == "BF":
        return BoundedFloodingScheme(parameters=params.bf)
    if name == "disjoint":
        return DisjointBackupScheme()
    if name == "random":
        return RandomBackupScheme()
    if name == NO_BACKUP:
        return NoBackupScheme()
    raise ValueError("unknown scheme {!r}".format(name))


@dataclass
class PointResult:
    """One (scheme, cell) evaluation point."""

    scheme: str
    degree: int
    pattern: str
    lam: float
    fault_tolerance: float
    overhead_percent: float
    acceptance_ratio: float
    mean_active: float
    baseline_mean_active: float
    messages_per_request: float
    mean_spare_fraction: float
    ft_stats: FaultToleranceStats
    sim: SimulationResult


@dataclass(frozen=True)
class CellSpec:
    """Identifies one evaluation cell."""

    degree: int
    pattern: str
    lam: float


def make_traffic_pattern(
    pattern: str,
    parameters: Table1Parameters,
    master_seed: int,
    degree: int,
) -> TrafficPattern:
    """Pattern instance; NT's hot set is fixed per (seed, degree) so it
    stays identical across arrival rates, as one physical deployment
    would."""
    if pattern == "UT":
        return UniformTraffic(parameters.num_nodes)
    if pattern == "NT":
        return HotspotTraffic(
            parameters.num_nodes,
            hot_count=parameters.hot_destinations,
            hot_fraction=parameters.hot_fraction,
            selection_rng=seeded_rng(master_seed, "hotspots", degree),
        )
    raise ValueError("unknown traffic pattern {!r}".format(pattern))


def cell_scenario(
    spec: CellSpec,
    scale: ExperimentScale,
    parameters: Optional[Table1Parameters] = None,
    master_seed: int = 7,
) -> Scenario:
    """The scenario file for one cell (deterministic in its inputs)."""
    params = parameters or DEFAULT_PARAMETERS
    pattern = make_traffic_pattern(spec.pattern, params, master_seed, spec.degree)
    return generate_scenario(
        num_nodes=params.num_nodes,
        arrival_rate=spec.lam,
        duration=scale.duration,
        bw_req=params.bw_req,
        pattern=pattern,
        holding=params.holding,
        seed=derive_seed(master_seed, spec.degree, spec.pattern, spec.lam),
    )


def replay(
    network,
    scenario: Scenario,
    scheme: RoutingScheme,
    scale: ExperimentScale,
    spare_policy: Optional[SparePolicy] = None,
    require_backup: Optional[bool] = None,
    observers: Sequence = (),
    risk_groups=None,
) -> SimulationResult:
    """Run one scenario against a fresh service.  ``risk_groups``
    installs an SRLG assignment so routing and spare sizing become
    group-aware (see :mod:`repro.experiments.survivability`)."""
    service = DRTPService(
        network,
        scheme,
        spare_policy=spare_policy or SharedSparePolicy(),
        require_backup=require_backup,
        risk_groups=risk_groups,
    )
    simulator = ScenarioSimulator(
        service,
        scenario,
        warmup=scale.warmup,
        snapshot_count=scale.snapshot_count,
    )
    return simulator.run(observers=observers)


def run_cell(
    spec: CellSpec,
    schemes: Sequence[str] = PAPER_SCHEMES,
    scale: ExperimentScale = QUICK_SCALE,
    parameters: Optional[Table1Parameters] = None,
    master_seed: int = 7,
) -> Dict[str, PointResult]:
    """Evaluate every scheme (plus the no-backup baseline) on a cell."""
    params = parameters or DEFAULT_PARAMETERS
    network = make_network(spec.degree, params)
    scenario = cell_scenario(spec, scale, params, master_seed)

    baseline = replay(
        network,
        scenario,
        make_scheme(NO_BACKUP, params),
        scale,
    )
    baseline_active = baseline.mean_active_connections

    points: Dict[str, PointResult] = {}
    for name in schemes:
        ft_observer = FaultToleranceObserver()
        spare_observer = SpareShareObserver()
        sim = replay(
            network,
            scenario,
            make_scheme(name, params),
            scale,
            observers=(ft_observer, spare_observer),
        )
        messages = (
            sim.control_messages / sim.requests if sim.requests else 0.0
        )
        points[name] = PointResult(
            scheme=name,
            degree=spec.degree,
            pattern=spec.pattern,
            lam=spec.lam,
            fault_tolerance=ft_observer.stats.p_act_bk,
            overhead_percent=capacity_overhead_percent(
                baseline_active, sim.mean_active_connections
            ),
            acceptance_ratio=sim.acceptance_ratio,
            mean_active=sim.mean_active_connections,
            baseline_mean_active=baseline_active,
            messages_per_request=messages,
            mean_spare_fraction=spare_observer.mean_spare_fraction,
            ft_stats=ft_observer.stats,
            sim=sim,
        )
    return points


# Cache so Figure-4 and Figure-5 benchmarks share one campaign.
_CELL_CACHE: Dict[Tuple, Dict[str, PointResult]] = {}


def _cell_cache_key(
    spec: CellSpec,
    schemes: Sequence[str],
    scale: ExperimentScale,
    master_seed: int,
) -> Tuple:
    return (spec, tuple(schemes), scale.name, master_seed)


def run_cell_cached(
    spec: CellSpec,
    schemes: Sequence[str] = PAPER_SCHEMES,
    scale: ExperimentScale = QUICK_SCALE,
    parameters: Optional[Table1Parameters] = None,
    master_seed: int = 7,
) -> Dict[str, PointResult]:
    """:func:`run_cell` behind a per-process cache, so benchmarks and
    figure builders sharing a cell pay for the simulation once."""
    key = _cell_cache_key(spec, schemes, scale, master_seed)
    if key not in _CELL_CACHE:
        _CELL_CACHE[key] = run_cell(spec, schemes, scale, parameters, master_seed)
    return _CELL_CACHE[key]


def prime_cell_cache(
    spec: CellSpec,
    schemes: Sequence[str],
    scale: ExperimentScale,
    master_seed: int,
    points: Dict[str, PointResult],
) -> None:
    """Install externally computed cell results (e.g. from a parallel
    campaign's checkpoint journal) so subsequent figure/export builders
    reuse them instead of re-simulating."""
    _CELL_CACHE[_cell_cache_key(spec, schemes, scale, master_seed)] = dict(
        points
    )


def collect_curves(
    points: Sequence[PointResult],
    lams: Sequence[float],
    patterns: Sequence[str],
    schemes: Sequence[str],
    metric: str,
) -> Dict[Tuple[str, str], List[float]]:
    """Index panel points into figure curves:
    ``(scheme, pattern) -> [metric per lambda]``.

    Shared by the figure builders and the campaign result merger so
    the parallel path reassembles panels through the exact code the
    sequential path uses.
    """
    indexed = {
        (p.scheme, p.pattern, p.lam): getattr(p, metric) for p in points
    }
    return {
        (scheme, pattern): [
            indexed[(scheme, pattern, lam)] for lam in lams
        ]
        for pattern in patterns
        for scheme in schemes
    }


def run_panel(
    degree: int,
    lambdas: Sequence[float],
    patterns: Sequence[str] = ("UT", "NT"),
    schemes: Sequence[str] = PAPER_SCHEMES,
    scale: ExperimentScale = QUICK_SCALE,
    parameters: Optional[Table1Parameters] = None,
    master_seed: int = 7,
) -> List[PointResult]:
    """All points of one figure panel (one degree, both patterns)."""
    points: List[PointResult] = []
    for pattern in patterns:
        for lam in lambdas:
            cell = run_cell_cached(
                CellSpec(degree=degree, pattern=pattern, lam=lam),
                schemes,
                scale,
                parameters,
                master_seed,
            )
            points.extend(cell[name] for name in schemes)
    return points


@dataclass(frozen=True)
class AggregatePoint:
    """One (scheme, cell) point aggregated over several scenario seeds.

    The paper reports single-run curves; multi-seed aggregation lets
    the full campaign attach dispersion to every datapoint and tells
    apart real scheme gaps from scenario noise.
    """

    scheme: str
    degree: int
    pattern: str
    lam: float
    seeds: int
    fault_tolerance_mean: float
    fault_tolerance_std: float
    overhead_mean: float
    overhead_std: float
    acceptance_mean: float


def _mean_std(values: Sequence[float]) -> Tuple[float, float]:
    n = len(values)
    mean = sum(values) / n
    if n < 2:
        return mean, 0.0
    variance = sum((v - mean) ** 2 for v in values) / (n - 1)
    return mean, variance ** 0.5


def run_cell_seeds(
    spec: CellSpec,
    seeds: Sequence[int],
    schemes: Sequence[str] = PAPER_SCHEMES,
    scale: ExperimentScale = QUICK_SCALE,
    parameters: Optional[Table1Parameters] = None,
) -> Dict[str, AggregatePoint]:
    """Evaluate a cell under several independent scenarios and
    aggregate per scheme."""
    if not seeds:
        raise ValueError("need at least one seed")
    per_scheme: Dict[str, List[PointResult]] = {name: [] for name in schemes}
    for seed in seeds:
        cell = run_cell_cached(spec, schemes, scale, parameters, seed)
        for name in schemes:
            per_scheme[name].append(cell[name])
    aggregates: Dict[str, AggregatePoint] = {}
    for name, points in per_scheme.items():
        ft_mean, ft_std = _mean_std([p.fault_tolerance for p in points])
        ov_mean, ov_std = _mean_std([p.overhead_percent for p in points])
        acc_mean, _ = _mean_std([p.acceptance_ratio for p in points])
        aggregates[name] = AggregatePoint(
            scheme=name,
            degree=spec.degree,
            pattern=spec.pattern,
            lam=spec.lam,
            seeds=len(seeds),
            fault_tolerance_mean=ft_mean,
            fault_tolerance_std=ft_std,
            overhead_mean=ov_mean,
            overhead_std=ov_std,
            acceptance_mean=acc_mean,
        )
    return aggregates
