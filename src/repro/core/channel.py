"""Channels — the reserved routes a DR-connection is made of.

Section 2: "Each dependable real-time (DR-) connection consists of one
*primary* and one or more *backup* channels."  A channel couples a
route with a role and a lifecycle state:

* a **primary** channel carries the real-time traffic and holds an
  exclusive bandwidth reservation on every link of its route;
* a **backup** channel carries no real-time traffic until *activated*;
  it holds only a registration against the shared spare pool of each
  link it crosses (backup multiplexing).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from ..topology.graph import Route
from .errors import ConnectionStateError


class ChannelRole(enum.Enum):
    """Which leg of a DR-connection a channel implements."""

    PRIMARY = "primary"
    BACKUP = "backup"


class ChannelState(enum.Enum):
    """Lifecycle of a channel.

    ``RESERVED``: resources held, ready (primaries start here and carry
    traffic; backups start here and stay idle).
    ``ACTIVE``: a backup promoted to carry traffic after a failure.
    ``FAILED``: the route crosses a failed component.
    ``RELEASED``: resources returned.
    """

    RESERVED = "reserved"
    ACTIVE = "active"
    FAILED = "failed"
    RELEASED = "released"


@dataclass
class Channel:
    """One reserved route with role and lifecycle state.

    ``registration_index`` identifies which of a connection's backup
    registrations this channel holds in the per-link backup tables
    (0 = first backup); primaries ignore it.
    """

    role: ChannelRole
    route: Route
    state: ChannelState = ChannelState.RESERVED
    registration_index: int = 0

    def registration_key(self, connection_id: int):
        """Per-link backup-table key for this channel's registrations."""
        if self.registration_index == 0:
            return connection_id
        return (connection_id, self.registration_index)

    @staticmethod
    def registration_owner(key) -> int:
        """The connection id behind a per-link backup-table key (the
        inverse of :meth:`registration_key`)."""
        return key[0] if isinstance(key, tuple) else key

    @property
    def hop_count(self) -> int:
        return self.route.hop_count

    def crosses(self, link_id: int) -> bool:
        return self.route.uses_link(link_id)

    def mark_failed(self) -> None:
        if self.state is ChannelState.RELEASED:
            raise ConnectionStateError("cannot fail a released channel")
        self.state = ChannelState.FAILED

    def activate(self) -> None:
        """Promote a reserved backup into the traffic-carrying role."""
        if self.role is not ChannelRole.BACKUP:
            raise ConnectionStateError("only backup channels are activated")
        if self.state is not ChannelState.RESERVED:
            raise ConnectionStateError(
                "cannot activate a backup in state {}".format(self.state)
            )
        self.state = ChannelState.ACTIVE
        self.role = ChannelRole.PRIMARY

    def release(self) -> None:
        self.state = ChannelState.RELEASED
