"""Differential-testing harness for the fast-path routing engine.

The incremental demand-map/CV maintenance and the cached-workspace
searches buy their speed with exactly the kind of state that drifts
silently.
This package keeps them honest:

* :mod:`repro.testing.reference` — rebuild-from-scratch counterparts
  of every optimized component (naive searches, demand-map rebuilds, a
  no-cache database) preserved from before the optimization;
* :mod:`repro.testing.flooding` — the object-per-CDP bounded flood and
  set-based destination selection the flat-table flood replaced;
* :mod:`repro.testing.link_state` — the per-edge cost closures
  (primary and backup) and the closure planner the array kernel
  replaced;
* :mod:`repro.testing.commit` — the hop-by-hop commit over the
  ledgers' public mutators (fault-injected walk included) that the
  fused walks of :mod:`repro.kernels.apply` replaced, as the commit
  methods of an admission controller;
* :mod:`repro.testing.recovery` — the activation race as first written
  (pools read lazily into a dict, the bandwidth test made link by link)
  that the column race of :mod:`repro.core.recovery` replaced;
* :mod:`repro.testing.oracle` — :class:`DifferentialOracle`, a service
  wrapper that replays every operation — link, node, risk-group and
  link-set failures and repairs included, fault-injected services too
  — into a naive shadow service (:func:`make_reference_service`: same
  risk groups, a twin injector, the hop-by-hop commit) and asserts
  bit-identical decisions, routes and state fingerprints; a mutator
  it does not mirror is refused, and so is a bandwidth whose sums
  would round (:func:`require_exact`).  ``repro replay --oracle`` runs a
  scenario under it, and the service state machine of
  ``tests/test_service_machine.py`` uses it as its model.
"""

from .flooding import CDP, PendingEntry, ReferenceFloodingScheme
from .link_state import (
    ReferenceLinkStateScheme,
    disjoint_backup_cost,
    dlsr_backup_cost,
    plsr_backup_cost,
    primary_link_cost,
)
from .oracle import (
    DifferentialOracle,
    OracleDivergence,
    decision_key,
    impact_key,
    make_reference_service,
    require_exact,
    route_key,
)
from .recovery import reference_assess_failed_links
from .reference import (
    ReferenceDatabase,
    naive_bounded_shortest_path,
    naive_shortest_path,
)

__all__ = [
    "CDP",
    "DifferentialOracle",
    "OracleDivergence",
    "PendingEntry",
    "ReferenceDatabase",
    "ReferenceFloodingScheme",
    "ReferenceLinkStateScheme",
    "decision_key",
    "disjoint_backup_cost",
    "dlsr_backup_cost",
    "impact_key",
    "make_reference_service",
    "naive_bounded_shortest_path",
    "naive_shortest_path",
    "plsr_backup_cost",
    "primary_link_cost",
    "reference_assess_failed_links",
    "require_exact",
    "route_key",
]
