"""Service-level mutation commits: per mutating op, one call into the
:class:`~repro.core.service.DRTPService` plus the shaping of its
protocol result.

:class:`~repro.server.app.ControlPlaneServer` validates a request's
arguments and hands the canonical values here from the protocol
callback that answers the request's burst, in arrival order.
"""

from __future__ import annotations

from typing import Any, Dict

from ..core.errors import ConnectionStateError
from ..core.service import DRTPService


def apply_admit(service: DRTPService, args: Dict[str, Any]) -> Dict[str, Any]:
    """Commit an admission in one step: the service plans against its
    own database and reserves, with no other mutation in between."""
    hold = args.get("hold")
    decision = service.request(
        args["source"], args["destination"], args["bw"],
        holding_time=float("inf") if hold is None else hold,
        request_id=args.get("request_id"),
    )
    result: Dict[str, Any] = {
        "accepted": decision.accepted,
        "reason": decision.reason,
    }
    if decision.accepted:
        connection = decision.connection
        result.update(
            connection=connection.connection_id,
            degraded=decision.degraded,
            primary_hops=connection.primary_route.hop_count,
            backup_hops=(
                connection.backup_route.hop_count
                if connection.backup_route is not None else 0
            ),
        )
    return result


def apply_release(service: DRTPService, connection_id: int) -> Dict[str, Any]:
    """Release a connection.  Idempotent by design: the connection may
    have been torn down by a failure between the client's admit and
    this release, so "already gone" is a normal outcome, not a
    protocol error."""
    try:
        service.release(connection_id)
    except ConnectionStateError:
        return {"released": False, "connection": connection_id}
    return {"released": True, "connection": connection_id}


def apply_fail_link(service: DRTPService, link: int) -> Dict[str, Any]:
    """Fail a link and report the blast radius."""
    impact = service.fail_link(link)
    return {
        "link": link,
        "affected": impact.affected,
        "activated": impact.activated,
        "lost": impact.failed,
    }


def apply_repair_link(service: DRTPService, link: int) -> Dict[str, Any]:
    """Repair a link (idempotent), reporting whether it was failed."""
    was_failed = service.state.is_link_failed(link)
    service.repair_link(link)
    return {"link": link, "repaired": True, "was_failed": was_failed}
