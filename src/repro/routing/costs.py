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

The link-state schemes evaluate that cost for every link at once
(:meth:`repro.kernels.arrays.CompiledLinkArrays.backup_costs`); the
per-link closure form of the same three costs is the oracle's
reference planner (:mod:`repro.testing.link_state`).  What stays here
is what both — and the closure-searching baselines — share: ``Q`` and
the primary cost.
"""

from __future__ import annotations

from typing import Optional, Tuple

from ..network.database import LinkStateDatabase
from ..network.state import BW_EPSILON
from ..topology.graph import Link
from .dijkstra import LinkCost

#: The paper's ``Q``: must dominate any achievable conflict cost
#: (``max(APLV)`` is bounded by active connections, far below this).
Q_PENALTY = 1.0e6


def primary_link_cost(database: LinkStateDatabase, bw_req: float) -> LinkCost:
    """Minimum-hop primary routing over bandwidth-feasible links.

    Primaries get *hard* feasibility (a primary without bandwidth is
    useless), matching the CDP ``primary_flag`` semantics: the link
    must have ``total_bw − prime_bw − spare_bw ≥ bw_req``.
    """

    def cost(link: Link) -> Optional[Tuple[float, ...]]:
        if database.is_failed(link.link_id):
            return None
        if database.primary_headroom(link.link_id) + BW_EPSILON < bw_req:
            return None
        return (1.0,)

    return cost
