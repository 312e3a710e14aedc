"""The activation race as it was first written, kept as the reference.

:func:`repro.core.recovery.assess_failed_links` runs the race on a copy
of a column of activation pools read up front, tests a backup by its
least residual (``min(...) + BW_EPSILON >= bw``) and reads each
connection's channels directly.  This module keeps the spelling it
replaced: the pools read lazily into a dict the first time a backup
link is asked about, and the bandwidth test made link by link with
``all()`` over ``DRConnection.all_backups``.  The two share no code
beyond the outcome records and reason strings, so a test that diffs
them checks the race, not the race against itself.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Optional

from ..core.connection import DRConnection
from ..core.recovery import (
    ACTIVATED,
    BACKUP_CROSSES_FAILURE,
    ENDPOINT_FAILED,
    NO_BACKUP,
    SPARE_EXHAUSTED,
    ActivationOutcome,
    FailureImpact,
)
from ..network.state import BW_EPSILON, NetworkState


def reference_assess_failed_links(
    state: NetworkState,
    connections: Iterable[DRConnection],
    failed_links: FrozenSet[int],
    use_free_bandwidth: bool = False,
    dead_node: Optional[int] = None,
) -> FailureImpact:
    """What :func:`repro.core.recovery.assess_failed_links` must
    answer: the affected (active, primary crossing a failed link)
    activate in establishment order, each on the first backup that
    avoids every failed link and whose every link still holds
    ``bw_req`` of residual pool; a winner debits every link of that
    backup.  A connection ending at ``dead_node`` is
    :data:`~repro.core.recovery.ENDPOINT_FAILED` and draws nothing."""
    if dead_node is not None:
        label = -dead_node - 1
    elif len(failed_links) == 1:
        (label,) = failed_links
    else:
        label = -1
    impact = FailureImpact(link_id=label)
    affected = sorted(
        (
            conn
            for conn in connections
            if conn.is_active and (conn.primary_route.lset & failed_links)
        ),
        key=lambda conn: conn.established_seq,
    )
    residual: Dict[int, float] = {}

    def budget(backup_link: int) -> float:
        if backup_link not in residual:
            ledger = state.ledger(backup_link)
            pool = ledger.spare_bw
            if use_free_bandwidth:
                pool += ledger.free_bw
            residual[backup_link] = pool
        return residual[backup_link]

    for conn in affected:
        if dead_node in (conn.source, conn.destination):
            impact.outcomes.append(
                ActivationOutcome(conn.connection_id, False, ENDPOINT_FAILED)
            )
            continue
        channels = conn.all_backups
        if not channels:
            impact.outcomes.append(
                ActivationOutcome(conn.connection_id, False, NO_BACKUP)
            )
            continue
        activated_index = -1
        saw_survivor = False
        for index, channel in enumerate(channels):
            backup = channel.route
            if backup.lset & failed_links:
                continue
            saw_survivor = True
            if all(
                budget(b) + BW_EPSILON >= conn.bw_req
                for b in backup.link_ids
            ):
                for b in backup.link_ids:
                    residual[b] -= conn.bw_req
                activated_index = index
                break
        if activated_index >= 0:
            impact.outcomes.append(
                ActivationOutcome(
                    conn.connection_id, True, ACTIVATED, activated_index
                )
            )
        elif saw_survivor:
            impact.outcomes.append(
                ActivationOutcome(conn.connection_id, False, SPARE_EXHAUSTED)
            )
        else:
            impact.outcomes.append(
                ActivationOutcome(
                    conn.connection_id, False, BACKUP_CROSSES_FAILURE
                )
            )
    return impact
