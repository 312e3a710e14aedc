"""Array routing kernels — the link-state planner's one engine.

Evaluating APLV/CV conflict costs through per-edge closures makes
every edge Dijkstra expands call back into the link-state database,
which walks a sparse dict per ``LSET_P`` position.  This package keeps
that hot path in contiguous arrays instead:

* per-link APLV L1 norms, Conflict-Vector bitsets, headrooms and the
  SRLG group columns live in flat tables
  (:class:`~repro.kernels.arrays.CompiledLinkArrays`), refreshed in
  batch from the ledgers' dirty set;
* the backup cost of *every* link is computed in one vectorized numpy
  pass per search (bit-AND + popcount of the packed ``uint64``
  bit-matrix against the primary's ``LSET`` mask), producing a scalar
  cost array;
* the searches run over that array with flat ``(dst, link_id)`` pair
  adjacency (:mod:`repro.kernels.search`), no cost closures and no
  tuple arithmetic — and an unbounded search first looks for its
  answer over unit-cost links with a hop-bounded BFS, running the
  exhaustive Dijkstra — two-ended, the forward side pruned by what the
  backward side proved — only when the destination is not reachable
  that way (provably the same route, tie-breaks included);
* the admission commit is one validate-then-apply transaction per walk
  (:mod:`repro.kernels.apply`).

Lexicographic ``(conflict_cost, hops)`` tuples are encoded as the
single float ``conflict_cost * scale + hops`` with ``scale`` larger
than any reachable hop count.  Both components are integer-valued and
every encoded sum stays far below 2**53, so the encoding is **exact**
in IEEE doubles and the search reproduces the closure planner's routes
— including every tie-break — bit for bit.  That planner (per-edge
closures over a rebuild-per-read database, dict Dijkstra) is kept in
:mod:`repro.testing` as the reference the conformance suite
(``tests/test_kernel_equivalence.py``) holds this package to.
"""

from __future__ import annotations

from .arrays import CompiledLinkArrays
from .bitset import (
    and_popcount,
    bits_of,
    mask_from_ids,
    or_fold,
    popcount,
    to_packed_bytes,
)
from .search import (
    encode_scale,
    flat_bounded_shortest_path,
    flat_dijkstra,
    flat_min_hop_path,
    flat_shortest_path,
)

__all__ = [
    "CompiledLinkArrays",
    "and_popcount",
    "bits_of",
    "encode_scale",
    "flat_bounded_shortest_path",
    "flat_dijkstra",
    "flat_min_hop_path",
    "flat_shortest_path",
    "mask_from_ids",
    "or_fold",
    "popcount",
    "to_packed_bytes",
]
