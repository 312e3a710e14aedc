"""Ablation studies for the design choices DESIGN.md calls out.

The paper motivates several design decisions qualitatively; these
ablations attach numbers to each claim:

* **BF flood bound** — "increasing the flooding area beyond this
  barely improves the performance" (Section 6.2): sweep (p, beta) and
  watch fault tolerance saturate while CDP cost keeps climbing.
* **Backup multiplexing** — "equipping each DR-connection even with a
  single backup ... reduces the network capacity by at least 50%"
  (Section 2): dedicated spare vs. shared spare capacity overhead.
* **Conflict awareness** — how much of D-LSR/P-LSR's fault tolerance
  comes from the APLV machinery, vs. merely routing the backup
  disjoint from the primary (disjoint baseline) or randomly.
* **Reactive recovery** — DRTP's raison d'être: proactive backup
  activation vs. post-failure re-routing on free bandwidth.
* **Activation resource pool** — letting activations also consume
  unallocated bandwidth (``SC`` counts spare only in the paper).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..analysis.fault_tolerance import (
    FaultToleranceObserver,
    ReactiveRecoveryObserver,
)
from ..analysis.overhead import capacity_overhead_percent
from ..core.multiplexing import (
    DedicatedSparePolicy,
    NoSparePolicy,
    SharedSparePolicy,
)
from ..routing.flooding import BFParameters, BoundedFloodingScheme
from ..routing.reactive import ReactiveScheme
from .config import (
    DEFAULT_PARAMETERS,
    ExperimentScale,
    QUICK_SCALE,
    Table1Parameters,
    make_network,
)
from .sweep import CellSpec, cell_scenario, make_scheme, replay


@dataclass(frozen=True)
class AblationRow:
    """One ablation datapoint."""

    variant: str
    fault_tolerance: float
    overhead_percent: float
    acceptance_ratio: float
    messages_per_request: float

    def as_tuple(self) -> Tuple[str, float, float, float, float]:
        return (
            self.variant,
            self.fault_tolerance,
            self.overhead_percent,
            self.acceptance_ratio,
            self.messages_per_request,
        )


def _run_variant(
    variant: str,
    network,
    scenario,
    scheme,
    scale: ExperimentScale,
    spare_policy=None,
    require_backup: Optional[bool] = None,
    baseline_active: float = 0.0,
    use_free_bandwidth: bool = False,
    reactive: bool = False,
) -> AblationRow:
    if reactive:
        observer = ReactiveRecoveryObserver()
    else:
        observer = FaultToleranceObserver(use_free_bandwidth=use_free_bandwidth)
    sim = replay(
        network,
        scenario,
        scheme,
        scale,
        spare_policy=spare_policy,
        require_backup=require_backup,
        observers=(observer,),
    )
    return AblationRow(
        variant=variant,
        fault_tolerance=observer.stats.p_act_bk,
        overhead_percent=capacity_overhead_percent(
            baseline_active, sim.mean_active_connections
        ),
        acceptance_ratio=sim.acceptance_ratio,
        messages_per_request=(
            sim.control_messages / sim.requests if sim.requests else 0.0
        ),
    )


def _cell_fixture(
    spec: CellSpec,
    scale: ExperimentScale,
    parameters: Optional[Table1Parameters],
    master_seed: int,
):
    params = parameters or DEFAULT_PARAMETERS
    network = make_network(spec.degree, params)
    scenario = cell_scenario(spec, scale, params, master_seed)
    baseline = replay(
        network, scenario, make_scheme("no-backup", params), scale
    )
    return params, network, scenario, baseline.mean_active_connections


def bf_bound_ablation(
    spec: CellSpec = CellSpec(degree=3, pattern="UT", lam=0.4),
    bounds: Sequence[Tuple[int, int]] = ((0, 0), (1, 1), (2, 2), (3, 3), (4, 4)),
    scale: ExperimentScale = QUICK_SCALE,
    parameters: Optional[Table1Parameters] = None,
    master_seed: int = 7,
) -> List[AblationRow]:
    """Sweep BF's slack parameters ``(p, beta)`` jointly."""
    params, network, scenario, baseline_active = _cell_fixture(
        spec, scale, parameters, master_seed
    )
    rows = []
    for p, beta in bounds:
        scheme = BoundedFloodingScheme(
            parameters=BFParameters(rho=params.bf.rho, p=p,
                                    alpha=params.bf.alpha, beta=beta)
        )
        rows.append(
            _run_variant(
                "BF p={} beta={}".format(p, beta),
                network, scenario, scheme, scale,
                baseline_active=baseline_active,
            )
        )
    return rows


def spare_policy_ablation(
    spec: CellSpec = CellSpec(degree=3, pattern="UT", lam=0.5),
    scale: ExperimentScale = QUICK_SCALE,
    parameters: Optional[Table1Parameters] = None,
    master_seed: int = 7,
) -> List[AblationRow]:
    """Shared (multiplexed) vs. dedicated vs. no spare, under D-LSR."""
    params, network, scenario, baseline_active = _cell_fixture(
        spec, scale, parameters, master_seed
    )
    rows = []
    for policy, label in (
        (SharedSparePolicy(), "shared spare (paper)"),
        (DedicatedSparePolicy(), "dedicated spare (no multiplexing)"),
        (NoSparePolicy(), "no spare reserved"),
    ):
        rows.append(
            _run_variant(
                label,
                network, scenario, make_scheme("D-LSR", params), scale,
                spare_policy=policy,
                baseline_active=baseline_active,
            )
        )
    return rows


def conflict_awareness_ablation(
    spec: CellSpec = CellSpec(degree=3, pattern="NT", lam=0.4),
    scale: ExperimentScale = QUICK_SCALE,
    parameters: Optional[Table1Parameters] = None,
    master_seed: int = 7,
) -> List[AblationRow]:
    """D-LSR / P-LSR vs. conflict-blind disjoint and random backups."""
    params, network, scenario, baseline_active = _cell_fixture(
        spec, scale, parameters, master_seed
    )
    rows = []
    for name in ("D-LSR", "P-LSR", "disjoint", "random"):
        rows.append(
            _run_variant(
                name,
                network, scenario, make_scheme(name, params), scale,
                baseline_active=baseline_active,
            )
        )
    return rows


def topology_locality_ablation(
    alphas: Sequence[float] = (0.1, 0.25, 0.5),
    lam: float = 0.4,
    scale: ExperimentScale = QUICK_SCALE,
    parameters: Optional[Table1Parameters] = None,
    master_seed: int = 7,
) -> List[AblationRow]:
    """Waxman's ``alpha`` (long/short edge balance) vs. D-LSR quality.

    The paper fixes one generator configuration; this ablation varies
    the locality bias at constant average degree: low ``alpha`` gives
    geographically local edges (long multi-hop routes, fewer detour
    options in any neighbourhood), high ``alpha`` sprinkles shortcuts.
    """
    import random as random_module

    from ..analysis.fault_tolerance import FaultToleranceObserver
    from ..core.service import DRTPService
    from ..routing.dlsr import DLSRScheme
    from ..routing.baselines import NoBackupScheme
    from ..simulation.simulator import ScenarioSimulator
    from ..topology.waxman import WaxmanParameters, waxman_network
    from .sweep import cell_scenario

    params = parameters or DEFAULT_PARAMETERS
    spec = CellSpec(degree=3, pattern="UT", lam=lam)
    scenario = cell_scenario(spec, scale, params, master_seed)
    rows = []
    for alpha in alphas:
        network = waxman_network(
            params.num_nodes,
            capacity=params.link_capacity,
            parameters=WaxmanParameters(alpha=alpha, target_degree=3.0),
            rng=random_module.Random(master_seed),
        )
        baseline = replay(network, scenario, NoBackupScheme(), scale)
        observer = FaultToleranceObserver()
        service = DRTPService(network, DLSRScheme())
        sim = ScenarioSimulator(
            service, scenario, warmup=scale.warmup,
            snapshot_count=scale.snapshot_count,
        ).run(observers=(observer,))
        rows.append(
            AblationRow(
                variant="Waxman alpha={}".format(alpha),
                fault_tolerance=observer.stats.p_act_bk,
                overhead_percent=capacity_overhead_percent(
                    baseline.mean_active_connections,
                    sim.mean_active_connections,
                ),
                acceptance_ratio=sim.acceptance_ratio,
                messages_per_request=0.0,
            )
        )
    return rows


def multi_failure_ablation(
    spec: CellSpec = CellSpec(degree=3, pattern="UT", lam=0.4),
    scale: ExperimentScale = QUICK_SCALE,
    parameters: Optional[Table1Parameters] = None,
    master_seed: int = 7,
) -> List[AblationRow]:
    """Quantify the paper's fault-model assumption ("only a single
    link can fail between two successive recovery actions"): measure
    activation success when link *pairs* fail together, next to the
    single-failure number from the same run."""
    from ..analysis.fault_tolerance import FaultToleranceObserver
    from ..analysis.hotspots import DoubleFailureObserver
    from ..core.service import DRTPService
    from ..routing.dlsr import DLSRScheme
    from ..simulation.simulator import ScenarioSimulator

    params, network, scenario, baseline_active = _cell_fixture(
        spec, scale, parameters, master_seed
    )
    single = FaultToleranceObserver()
    double = DoubleFailureObserver(max_pairs_per_snapshot=150,
                                   seed=master_seed)
    service = DRTPService(network, DLSRScheme())
    sim = ScenarioSimulator(
        service, scenario, warmup=scale.warmup,
        snapshot_count=scale.snapshot_count,
    ).run(observers=(single, double))
    overhead = capacity_overhead_percent(
        baseline_active, sim.mean_active_connections
    )
    return [
        AblationRow(
            variant="single link failure (paper model)",
            fault_tolerance=single.stats.p_act_bk,
            overhead_percent=overhead,
            acceptance_ratio=sim.acceptance_ratio,
            messages_per_request=0.0,
        ),
        AblationRow(
            variant="two simultaneous link failures",
            fault_tolerance=double.p_act_bk,
            overhead_percent=overhead,
            acceptance_ratio=sim.acceptance_ratio,
            messages_per_request=0.0,
        ),
    ]


def qos_slack_ablation(
    spec: CellSpec = CellSpec(degree=3, pattern="UT", lam=0.4),
    slacks: Sequence[Optional[int]] = (None, 4, 2, 1),
    scale: ExperimentScale = QUICK_SCALE,
    parameters: Optional[Table1Parameters] = None,
    master_seed: int = 7,
) -> List[AblationRow]:
    """Delay-QoS tightness: bound every route to ``min_dist + slack``.

    Section 2's Figure-1 discussion: a connection whose "QoS
    requirement (e.g., end-to-end delay) is too tight to use the
    longer path" cannot take the clean detour.  Tighter slack should
    cost acceptance (fewer compliant backups) and eventually fault
    tolerance (shorter backups overlap more).  ``None`` = unbounded,
    the paper's evaluation setting.
    """
    from ..analysis.fault_tolerance import FaultToleranceObserver
    from ..core.service import DRTPService
    from ..routing.dlsr import DLSRScheme
    from ..simulation.simulator import ScenarioSimulator

    params, network, scenario, baseline_active = _cell_fixture(
        spec, scale, parameters, master_seed
    )
    rows = []
    for slack in slacks:
        service = DRTPService(network, DLSRScheme(), qos_slack=slack)
        observer = FaultToleranceObserver()
        sim = ScenarioSimulator(
            service, scenario, warmup=scale.warmup,
            snapshot_count=scale.snapshot_count,
        ).run(observers=(observer,))
        rows.append(
            AblationRow(
                variant="unbounded (paper)" if slack is None
                else "slack {} hop(s)".format(slack),
                fault_tolerance=observer.stats.p_act_bk,
                overhead_percent=capacity_overhead_percent(
                    baseline_active, sim.mean_active_connections
                ),
                acceptance_ratio=sim.acceptance_ratio,
                messages_per_request=0.0,
            )
        )
    return rows


def staleness_ablation(
    spec: CellSpec = CellSpec(degree=3, pattern="UT", lam=0.4),
    refresh_intervals: Sequence[Optional[float]] = (None, 60.0, 600.0),
    scale: ExperimentScale = QUICK_SCALE,
    parameters: Optional[Table1Parameters] = None,
    master_seed: int = 7,
) -> List[AblationRow]:
    """How much does instantaneous link-state convergence matter?

    The paper's evaluation assumes routers always see current APLV /
    bandwidth state; a real link-state protocol refreshes
    periodically.  ``None`` = live (the paper's assumption); numbers
    are refresh periods in seconds.  Stale information misroutes
    (admission rolls back), lowering acceptance and fault tolerance.
    """
    from ..analysis.fault_tolerance import FaultToleranceObserver
    from ..core.service import DRTPService
    from ..routing.dlsr import DLSRScheme
    from ..simulation.simulator import ScenarioSimulator

    params, network, scenario, baseline_active = _cell_fixture(
        spec, scale, parameters, master_seed
    )
    rows = []
    for interval in refresh_intervals:
        live = interval is None
        service = DRTPService(network, DLSRScheme(), live_database=live)
        observer = FaultToleranceObserver()
        sim = ScenarioSimulator(
            service,
            scenario,
            warmup=scale.warmup,
            snapshot_count=scale.snapshot_count,
            database_refresh_interval=None if live else interval,
        ).run(observers=(observer,))
        rows.append(
            AblationRow(
                variant="live link state" if live
                else "refresh every {:.0f}s".format(interval),
                fault_tolerance=observer.stats.p_act_bk,
                overhead_percent=capacity_overhead_percent(
                    baseline_active, sim.mean_active_connections
                ),
                acceptance_ratio=sim.acceptance_ratio,
                messages_per_request=0.0,
            )
        )
    return rows


def backup_count_ablation(
    spec: CellSpec = CellSpec(degree=3, pattern="UT", lam=0.5),
    counts: Sequence[int] = (1, 2),
    scale: ExperimentScale = QUICK_SCALE,
    parameters: Optional[Table1Parameters] = None,
    master_seed: int = 7,
) -> List[AblationRow]:
    """Section 2 allows "one or more backup channels": measure the
    fault-tolerance gain and capacity cost of each extra backup."""
    from ..routing.dlsr import DLSRScheme

    params, network, scenario, baseline_active = _cell_fixture(
        spec, scale, parameters, master_seed
    )
    rows = []
    for count in counts:
        rows.append(
            _run_variant(
                "D-LSR with {} backup(s)".format(count),
                network, scenario, DLSRScheme(num_backups=count), scale,
                baseline_active=baseline_active,
            )
        )
    return rows


def reactive_vs_proactive_ablation(
    spec: CellSpec = CellSpec(degree=3, pattern="UT", lam=0.4),
    scale: ExperimentScale = QUICK_SCALE,
    parameters: Optional[Table1Parameters] = None,
    master_seed: int = 7,
) -> List[AblationRow]:
    """DRTP backup activation vs. reactive post-failure re-routing."""
    params, network, scenario, baseline_active = _cell_fixture(
        spec, scale, parameters, master_seed
    )
    rows = [
        _run_variant(
            "D-LSR proactive (DRTP)",
            network, scenario, make_scheme("D-LSR", params), scale,
            baseline_active=baseline_active,
        ),
        _run_variant(
            "reactive re-routing",
            network, scenario, ReactiveScheme(), scale,
            baseline_active=baseline_active,
            reactive=True,
        ),
    ]
    return rows


def activation_pool_ablation(
    spec: CellSpec = CellSpec(degree=3, pattern="UT", lam=0.5),
    scale: ExperimentScale = QUICK_SCALE,
    parameters: Optional[Table1Parameters] = None,
    master_seed: int = 7,
) -> List[AblationRow]:
    """Spare-only activation (paper) vs. spare + free bandwidth."""
    params, network, scenario, baseline_active = _cell_fixture(
        spec, scale, parameters, master_seed
    )
    rows = []
    for use_free, label in (
        (False, "activate on spare only (paper SC)"),
        (True, "activate on spare + free bandwidth"),
    ):
        rows.append(
            _run_variant(
                label,
                network, scenario, make_scheme("D-LSR", params), scale,
                baseline_active=baseline_active,
                use_free_bandwidth=use_free,
            )
        )
    return rows
