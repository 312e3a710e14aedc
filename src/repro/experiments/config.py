"""Experiment configuration — the paper's Table 1.

Section 6.1 fixes: 60-node Waxman networks with average degrees 3 and
4, identical bi-directional link capacities, Poisson arrivals with
rate lambda, constant per-connection bandwidth, uniform 20–60-minute
lifetimes, and the UT/NT traffic patterns.  The printed numeric values
of Table 1 are illegible in the archival scan, so this reproduction
re-derives the free parameters (link capacity in units of ``bw_req``)
to land the saturation points where Section 6.2 reports them —
"the simulated network gets saturated as lambda reaches 0.5 (0.9) for
the case of E = 3 (E = 4)" — and records the chosen values here as the
single source of truth.  ``python -m repro.experiments.run_all``
prints this table first.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from ..routing.flooding import BFParameters
from ..simulation.arrivals import HoldingTimeDistribution
from ..topology.graph import Network
from ..topology.waxman import WaxmanParameters, waxman_network


@dataclass(frozen=True)
class Table1Parameters:
    """All simulation parameters (the reproduction's Table 1)."""

    num_nodes: int = 60
    average_degrees: Tuple[int, ...] = (3, 4)
    link_capacity: float = 30.0            # in units of bw_req
    bw_req: float = 1.0                    # constant per connection
    holding: HoldingTimeDistribution = field(
        default_factory=HoldingTimeDistribution  # uniform 20-60 min
    )
    lambdas: Tuple[float, ...] = (0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0)
    traffic_patterns: Tuple[str, ...] = ("UT", "NT")
    hot_destinations: int = 10
    hot_fraction: float = 0.5
    bf: BFParameters = field(default_factory=BFParameters)  # rho=alpha=1, p=beta=2
    topology_seed: int = 2001              # DSN 2001

    def rows(self) -> Tuple[Tuple[str, str], ...]:
        """(parameter, value) rows for the Table-1 printout."""
        return (
            ("number of nodes", str(self.num_nodes)),
            ("average node degree E", ", ".join(map(str, self.average_degrees))),
            ("link capacity C (units of bw_req)", str(self.link_capacity)),
            ("bw_req per DR-connection", str(self.bw_req)),
            (
                "connection lifetime t_req",
                "uniform [{:.0f}, {:.0f}] min".format(
                    self.holding.minimum / 60.0, self.holding.maximum / 60.0
                ),
            ),
            (
                "arrival rate lambda (1/s)",
                "{} .. {}".format(self.lambdas[0], self.lambdas[-1]),
            ),
            ("traffic patterns", ", ".join(self.traffic_patterns)),
            (
                "NT hot destinations",
                "{} nodes, {:.0%} of connections".format(
                    self.hot_destinations, self.hot_fraction
                ),
            ),
            (
                "BF parameters (rho, p, alpha, beta)",
                "({}, {}, {}, {})".format(
                    self.bf.rho, self.bf.p, self.bf.alpha, self.bf.beta
                ),
            ),
        )


#: The canonical parameter set used by every experiment module.
DEFAULT_PARAMETERS = Table1Parameters()


@dataclass(frozen=True)
class ExperimentScale:
    """How long and how finely to simulate.

    ``PAPER`` approaches the original evaluation's statistical weight;
    ``QUICK`` preserves every qualitative shape at a fraction of the
    cost (used by the pytest benchmarks so the suite stays minutes,
    not hours); ``SMOKE`` is for tests only.
    """

    name: str
    duration: float
    warmup: float
    snapshot_count: int


PAPER_SCALE = ExperimentScale("paper", duration=14400.0, warmup=7200.0,
                              snapshot_count=6)
QUICK_SCALE = ExperimentScale("quick", duration=5400.0, warmup=3000.0,
                              snapshot_count=3)
SMOKE_SCALE = ExperimentScale("smoke", duration=1800.0, warmup=900.0,
                              snapshot_count=2)

#: Scale registry by name (CLI choices, campaign specs, run_all).
SCALES: Dict[str, ExperimentScale] = {
    scale.name: scale for scale in (PAPER_SCALE, QUICK_SCALE, SMOKE_SCALE)
}

#: Lambda ranges actually plotted per figure panel (x-axes of
#: Figures 4(a)/5(a) span 0.2-0.7 for E=3; 4(b)/5(b) span 0.4-0.9).
FIGURE_LAMBDAS: Dict[int, Tuple[float, ...]] = {
    3: (0.2, 0.3, 0.4, 0.5, 0.6, 0.7),
    4: (0.4, 0.5, 0.6, 0.7, 0.8, 0.9),
}

_NETWORK_CACHE: Dict[Tuple[int, int, float, int], Network] = {}


def make_network(
    degree: int,
    parameters: Optional[Table1Parameters] = None,
    seed: Optional[int] = None,
) -> Network:
    """The evaluation Waxman network for a given average degree.

    Deterministic per (nodes, degree, capacity, seed) and cached, so
    every scheme faces the identical topology — a prerequisite of the
    scenario-replay comparison.
    """
    params = parameters or DEFAULT_PARAMETERS
    seed = params.topology_seed if seed is None else seed
    key = (params.num_nodes, degree, params.link_capacity, seed)
    if key not in _NETWORK_CACHE:
        _NETWORK_CACHE[key] = waxman_network(
            params.num_nodes,
            capacity=params.link_capacity,
            parameters=WaxmanParameters(target_degree=float(degree)),
            rng=random.Random(seed + degree),
        )
    return _NETWORK_CACHE[key]
