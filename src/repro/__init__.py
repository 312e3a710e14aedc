"""repro — Dependable Real-Time Connection routing (DSN 2001 reproduction).

A full implementation of the Dependable Real-Time Protocol's
primary/backup channel management together with the three backup-
routing schemes of Kim, Qiao, Kodase & Shin, *Design and Evaluation of
Routing Schemes for Dependable Real-Time Connections* (DSN 2001):

* **P-LSR** — probabilistic conflict avoidance via ``||APLV||_1``;
* **D-LSR** — deterministic conflict avoidance via Conflict Vectors;
* **BF** — on-demand discovery with bounded flooding.

Quickstart::

    import random
    from repro import DRTPService, DLSRScheme, waxman_network

    network = waxman_network(60, capacity=30.0, rng=random.Random(1))
    service = DRTPService(network, DLSRScheme())
    decision = service.request(source=0, destination=42, bw_req=1.0)
    impact = service.assess_link_failure(
        decision.connection.primary_route.link_ids[0]
    )
    print(impact.activated, "of", impact.affected, "backups would activate")

Packages: :mod:`repro.topology` (networks and generators),
:mod:`repro.network` (APLV / Conflict Vector / ledgers),
:mod:`repro.routing` (the schemes), :mod:`repro.core` (DRTP service),
:mod:`repro.simulation` (scenario replay), :mod:`repro.analysis`
(metrics), :mod:`repro.experiments` (the paper's tables/figures),
:mod:`repro.metrics` (dependency-free operational metrics),
:mod:`repro.observability` (hierarchical span tracing with Chrome
trace / NDJSON export) and :mod:`repro.server` (the online
control-plane server + load generator).
"""

from .topology import (
    Link,
    Network,
    Route,
    TopologyError,
    hexagonal_mesh_network,
    mesh_network,
    ring_network,
    waxman_network,
)
from .network import APLV, ConflictVector, LinkStateDatabase, NetworkState
from .routing import (
    BFParameters,
    BoundedFloodingScheme,
    DLSRScheme,
    DisjointBackupScheme,
    NoBackupScheme,
    PLSRScheme,
    RandomBackupScheme,
    ReactiveScheme,
    RoutePlan,
    RouteQuery,
    RoutingScheme,
)
from .core import (
    ConnectionRequest,
    DedicatedSparePolicy,
    DRConnection,
    DRTPService,
    FailureImpact,
    FaultInjectionError,
    SharedSparePolicy,
    SimulationError,
)
from .simulation import (
    Scenario,
    ScenarioSimulator,
    SimulationResult,
    generate_scenario,
)
from .analysis import (
    ChaosReport,
    FaultToleranceObserver,
    SpareShareObserver,
    capacity_overhead_percent,
)
from .faults import (
    CampaignConfig,
    FaultInjector,
    FaultPlan,
    RetryPolicy,
    run_campaign,
)
from .metrics import (
    MetricsRegistry,
    ServiceMetrics,
    parse_prometheus_text,
)
from .observability import (
    Span,
    TraceCollector,
    chrome_trace,
    write_chrome_trace,
    write_ndjson,
)
from .server import (
    ControlPlaneServer,
    LoadGenConfig,
    LoadGenerator,
    build_timeline,
    run_sequential_reference,
)
from .loadmodel import (
    MMPPParameters,
    ProductionTraceConfig,
    ProductionTraceGenerator,
    SoakEngine,
    generate_production_scenario,
)

__version__ = "1.0.0"

#: Exported from :mod:`repro.campaign`, which loads on first use:
#: importing it pulls in ``multiprocessing`` and the process pool,
#: which a server or a library caller that never runs a campaign
#: should not pay for.
_CAMPAIGN_NAMES = frozenset(
    ("CampaignSpec", "campaign_status", "resume_campaign", "run_campaign_jobs")
)


def __getattr__(name: str):
    """Resolve the campaign names lazily (PEP 562)."""
    if name in _CAMPAIGN_NAMES:
        from . import campaign

        return getattr(campaign, name)
    raise AttributeError(
        "module {!r} has no attribute {!r}".format(__name__, name)
    )

__all__ = [
    "__version__",
    # topology
    "Network",
    "Link",
    "Route",
    "TopologyError",
    "waxman_network",
    "mesh_network",
    "ring_network",
    "hexagonal_mesh_network",
    # network state
    "APLV",
    "ConflictVector",
    "NetworkState",
    "LinkStateDatabase",
    # routing
    "RoutingScheme",
    "RouteQuery",
    "RoutePlan",
    "PLSRScheme",
    "DLSRScheme",
    "BoundedFloodingScheme",
    "BFParameters",
    "NoBackupScheme",
    "DisjointBackupScheme",
    "RandomBackupScheme",
    "ReactiveScheme",
    # core
    "DRTPService",
    "DRConnection",
    "ConnectionRequest",
    "SharedSparePolicy",
    "DedicatedSparePolicy",
    "FailureImpact",
    "SimulationError",
    "FaultInjectionError",
    # simulation
    "Scenario",
    "generate_scenario",
    "ScenarioSimulator",
    "SimulationResult",
    # analysis
    "FaultToleranceObserver",
    "SpareShareObserver",
    "capacity_overhead_percent",
    "ChaosReport",
    # faults
    "FaultPlan",
    "FaultInjector",
    "RetryPolicy",
    "CampaignConfig",
    "run_campaign",
    # sharded campaigns
    "CampaignSpec",
    "run_campaign_jobs",
    "resume_campaign",
    "campaign_status",
    # metrics
    "MetricsRegistry",
    "ServiceMetrics",
    "parse_prometheus_text",
    # observability
    "Span",
    "TraceCollector",
    "chrome_trace",
    "write_chrome_trace",
    "write_ndjson",
    # online control plane
    "ControlPlaneServer",
    "LoadGenConfig",
    "LoadGenerator",
    "build_timeline",
    "run_sequential_reference",
    # production-trace load model
    "MMPPParameters",
    "ProductionTraceConfig",
    "ProductionTraceGenerator",
    "SoakEngine",
    "generate_production_scenario",
]
