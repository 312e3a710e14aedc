"""Production-trace workload engine (MMPP x diurnal hot-spot drift).

The paper evaluates Poisson arrivals with fixed UT/NT endpoint
patterns over ~hour horizons.  Production traffic is burstier (rates
flip between calm and busy regimes) and its hot spots *move* (the NT
hot set migrates over the day).  This package models both on top of
the existing seeded-stream machinery, so production traces replay
bit-identically like every other scenario:

* :mod:`repro.loadmodel.mmpp` — a Markov-modulated Poisson arrival
  process (per-phase rates, exponential sojourns);
* :mod:`repro.loadmodel.drift` — the NT hot-spot set migrating on a
  fixed epoch clock (diurnal drift);
* :mod:`repro.loadmodel.trace` — a streaming request
  generator plus a :class:`~repro.simulation.scenario.Scenario`
  materializer (the sequential reference);
* :mod:`repro.loadmodel.soak` — the long-horizon churn driver behind
  ``repro soak``, with windowed metrics and peak-RSS accounting;
* :mod:`repro.loadmodel.rss` — /proc-based RSS probes shared with the
  benchmark suite.
"""

from .drift import DriftParameters, DriftingHotspotTraffic
from .mmpp import MMPPArrivalProcess, MMPPParameters
from .rss import current_rss_bytes, peak_rss_bytes
from .soak import SoakEngine, SoakReport
from .trace import (
    ProductionTraceConfig,
    ProductionTraceGenerator,
    generate_production_scenario,
)

__all__ = [
    "MMPPParameters",
    "MMPPArrivalProcess",
    "DriftParameters",
    "DriftingHotspotTraffic",
    "ProductionTraceConfig",
    "ProductionTraceGenerator",
    "generate_production_scenario",
    "SoakEngine",
    "SoakReport",
    "current_rss_bytes",
    "peak_rss_bytes",
]
