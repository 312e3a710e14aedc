"""Dependency-free operational metrics.

The online control plane (:mod:`repro.server`) needs an observable
surface: how many admissions, how fast, how deep the backup
re-establishment queue is, how much incremental link-state work the
fast path is doing.  This package provides that surface without any
third-party dependency:

* :mod:`repro.metrics.registry` — counters and gauges (kept by the
  family or collected on scrape from the object that owns the value)
  and histograms in a :class:`MetricsRegistry`, rendered as
  Prometheus text exposition format or as a JSON-able snapshot;
* :mod:`repro.metrics.textformat` — a parser/validator for the
  Prometheus text format (used by tests and by the load generator to
  assert the endpoint stays well-formed);
* :mod:`repro.metrics.instruments` — :class:`ServiceMetrics`, the
  DRTP-specific metric families, every one collected from a
  :class:`~repro.core.service.DRTPService`'s own counters when
  scraped.

The registry keeps no count of its own: the service tallies every
event once whether or not it has a ``metrics`` argument, which only
adds the two latency histograms.
"""

from .registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsError,
    MetricsRegistry,
)
from .textformat import ParsedSample, parse_prometheus_text
from .instruments import ServiceMetrics

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsError",
    "MetricsRegistry",
    "ParsedSample",
    "parse_prometheus_text",
    "ServiceMetrics",
]
