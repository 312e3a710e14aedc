"""P-LSR: probabilistic avoidance of backup conflicts (Section 3.1).

The scheme's insight: the probability that link ``L_i`` suffers a
backup conflict grows with ``|PSET_i| = ||APLV_i||_1``, so — without
knowing *where* the registered primaries run — picking backup links
with small L1-norms maximizes an estimate of the activation
probability.  Eqs. 1–3 show that maximizing the product of per-link
activation probabilities is equivalent to minimizing
``Σ_{L_i ∈ B} ||APLV_i||_1``, a plain additive Dijkstra metric.

Concretely (Eq. 4): primary first by minimum-hop over feasible links;
then backup by Dijkstra with ``C_i = Q + ||APLV_i||_1 + ε``.
"""

from __future__ import annotations

from .link_state import LinkStateScheme


class PLSRScheme(LinkStateScheme):
    """Probabilistic link-state routing for DR-connections.

    Args:
        num_backups: Backup channels per connection (Section 2's "one
            or more"); the default 1 matches the paper's evaluation.
    """

    name = "P-LSR"
    conflict_kind = "plsr"
