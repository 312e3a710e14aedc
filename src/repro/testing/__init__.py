"""Differential-testing harness for the fast-path routing engine.

The incremental APLV/CV maintenance and the cached-workspace searches
buy their speed with exactly the kind of state that drifts silently.
This package keeps them honest:

* :mod:`repro.testing.reference` — rebuild-from-scratch counterparts
  of every optimized component (naive searches, APLV rebuilds, a
  no-cache database) preserved from before the optimization;
* :mod:`repro.testing.flooding` — the object-per-CDP bounded flood and
  set-based destination selection the flat-table flood replaced;
* :mod:`repro.testing.link_state` — the per-edge cost closures
  (primary and backup) and the closure planner the array kernel
  replaced;
* :mod:`repro.testing.commit` — the hop-by-hop commit over the
  ledgers' public mutators (fault-injected walk included) that the
  fused walks of :mod:`repro.kernels.apply` replaced;
* :mod:`repro.testing.oracle` — :class:`DifferentialOracle`, a service
  wrapper that replays every operation into a naive shadow service
  (:func:`make_reference_service`) and asserts bit-identical
  decisions, routes and state fingerprints.
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
    make_reference_service,
)
from .reference import (
    ReferenceDatabase,
    naive_bounded_shortest_path,
    naive_shortest_path,
    rebuilt_aplv,
)

__all__ = [
    "CDP",
    "DifferentialOracle",
    "OracleDivergence",
    "PendingEntry",
    "ReferenceDatabase",
    "ReferenceFloodingScheme",
    "ReferenceLinkStateScheme",
    "disjoint_backup_cost",
    "dlsr_backup_cost",
    "make_reference_service",
    "naive_bounded_shortest_path",
    "naive_shortest_path",
    "plsr_backup_cost",
    "primary_link_cost",
    "rebuilt_aplv",
]
