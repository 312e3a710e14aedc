"""Link-cost vocabulary shared by the routing schemes.

Both LSR backup costs have the shape ``C_i = Q + conflict_term + eps``
(the paper's Eq. 4 and Section 3.2):

* ``Q`` is "a very large constant" charged when the new connection's
  primary traverses ``L_i`` or when the link lacks the bandwidth the
  QoS requires.  It is *additive*, not an exclusion: when no clean
  path exists the search still returns the least-bad route (e.g. a
  backup that unavoidably shares one link with its primary), exactly
  as the paper's formulation allows.
* the conflict term is ``||APLV_i||_1`` for P-LSR and
  ``sum_{L_j in LSET_P} c_{i,j}`` for D-LSR;
* ``eps`` breaks ties toward the shortest route: a second
  lexicographic cost component of 1 per hop, which orders paths
  identically to any ``0 < eps < 1`` without floating-point hazards.

Every scheme evaluates its costs for all links at once, as one array
(:meth:`repro.kernels.arrays.CompiledLinkArrays.primary_costs` /
:meth:`~repro.kernels.arrays.CompiledLinkArrays.backup_costs`), and
searches it with :mod:`repro.kernels.search`.  The per-link closure
form of the same costs — ``primary_link_cost`` and the three backup
costs — is the oracle's reference planner
(:mod:`repro.testing.link_state`), whose routes
(:func:`repro.testing.reference.naive_shortest_path`) the array
searches must equal.  What stays here is what both share: ``Q``.
"""

from __future__ import annotations

#: The paper's ``Q``: must dominate any achievable conflict cost
#: (``max(APLV)`` is bounded by active connections, far below this).
Q_PENALTY = 1.0e6
