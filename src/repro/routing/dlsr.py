"""D-LSR: deterministic avoidance of backup conflicts (Section 3.2).

Where P-LSR only knows *how many* primaries stand behind a link's
backups, D-LSR's Conflict Vector records *which* links those primaries
traverse.  After the primary ``P_x`` is placed, a link ``L_i`` is
charged one unit per position of ``LSET_{P_x}`` whose CV bit is set —
the exact number of already-registered backups on ``L_i`` that would
contend with the new one if the corresponding shared primary link
failed.  Cost: ``C_i = Q + Σ_{L_j∈LSET_{P_x}} c_{i,j} + ε``.

This extra precision is what lets D-LSR take the longer-but-clean
detour of the paper's Figure 3 (route ``B3'`` via L9-L4-L2-L5) where
P-LSR may not distinguish two equally-popular links.
"""

from __future__ import annotations

from .link_state import LinkStateScheme


class DLSRScheme(LinkStateScheme):
    """Deterministic (Conflict-Vector) link-state routing.

    Args:
        num_backups: Backup channels per connection (Section 2's "one
            or more"); the default 1 matches the paper's evaluation.
    """

    name = "D-LSR"
    conflict_kind = "dlsr"
