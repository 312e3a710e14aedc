"""DR-connections and connection requests."""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Optional

from ..network.state import BW_EPSILON
from ..topology.graph import Route
from .channel import Channel, ChannelRole
from .errors import ConnectionStateError


@dataclass(frozen=True)
class ConnectionRequest:
    """A client's request for a DR-connection.

    The paper's model (Section 6.1): requests arrive as a Poisson
    process, each needs a constant bandwidth ``bw_req`` and lives for
    ``holding_time`` (uniform between 20 and 60 minutes) unless the
    network rejects it.
    """

    request_id: int
    source: int
    destination: int
    bw_req: float
    arrival_time: float = 0.0
    holding_time: float = float("inf")

    def __post_init__(self) -> None:
        if self.source == self.destination:
            raise ValueError("source and destination must differ")
        # Written so that NaN fails: every comparison with it is False.
        if not BW_EPSILON < self.bw_req < math.inf:
            raise ValueError("bw_req must be finite and above {}, got {!r}"
                             .format(BW_EPSILON, self.bw_req))
        if not self.holding_time > 0:
            raise ValueError("holding_time must be positive")

    @property
    def departure_time(self) -> float:
        return self.arrival_time + self.holding_time


class ConnectionState(enum.Enum):
    """Lifecycle of a DR-connection (see the per-member comments)."""

    ACTIVE = "active"          # primary carrying traffic, backup armed
    UNPROTECTED = "active-unprotected"  # primary up, no (usable) backup
    RECOVERING = "recovering"  # primary failed, switching to backup
    FAILED = "failed"          # primary failed and no backup activated
    TERMINATED = "terminated"  # released normally


@dataclass
class DRConnection:
    """An admitted dependable real-time connection.

    Section 2: "Each dependable real-time (DR-) connection consists of
    one primary and **one or more** backup channels."  ``backup`` is
    the first-choice backup; ``extra_backups`` holds any further ones
    in activation-preference order (recovery tries ``backup`` first,
    then each extra in turn).

    ``established_seq`` is the admission order; failure recovery
    resolves spare-pool contention in this order (first established,
    first activated), a deterministic stand-in for the paper's
    near-simultaneous activation races.
    """

    connection_id: int
    request: ConnectionRequest
    primary: Channel
    backup: Optional[Channel] = None
    extra_backups: List["Channel"] = field(default_factory=list)
    established_seq: int = 0
    state: ConnectionState = ConnectionState.ACTIVE

    def __post_init__(self) -> None:
        if self.primary.role is not ChannelRole.PRIMARY:
            raise ConnectionStateError("primary channel must have PRIMARY role")
        for channel in self.all_backups:
            if channel.role is not ChannelRole.BACKUP:
                raise ConnectionStateError("backup channel must have BACKUP role")
        if self.backup is None and self.extra_backups:
            raise ConnectionStateError(
                "extra backups require a first backup channel"
            )
        if self.backup is None and self.state is ConnectionState.ACTIVE:
            self.state = ConnectionState.UNPROTECTED

    @property
    def all_backups(self) -> List[Channel]:
        """Every standing backup channel, activation-preference first."""
        channels = []
        if self.backup is not None:
            channels.append(self.backup)
        channels.extend(self.extra_backups)
        return channels

    @property
    def backup_count(self) -> int:
        return len(self.all_backups)

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    @property
    def source(self) -> int:
        return self.request.source

    @property
    def destination(self) -> int:
        return self.request.destination

    @property
    def bw_req(self) -> float:
        return self.request.bw_req

    @property
    def primary_route(self) -> Route:
        return self.primary.route

    @property
    def backup_route(self) -> Optional[Route]:
        return self.backup.route if self.backup is not None else None

    @property
    def has_backup(self) -> bool:
        return self.backup is not None

    @property
    def is_active(self) -> bool:
        return self.state in (ConnectionState.ACTIVE, ConnectionState.UNPROTECTED)

    def backup_overlap_with_primary(self) -> int:
        """Links the backup shares with the primary — requirement (2)
        of Section 2's ideal-backup criteria; each shared link is a
        single point of failure."""
        if self.backup is None:
            return 0
        return len(self.primary.route.shared_links(self.backup.route))

    # ------------------------------------------------------------------
    # Transitions
    # ------------------------------------------------------------------
    def mark_recovering(self) -> None:
        if not self.is_active:
            raise ConnectionStateError(
                "cannot start recovery from state {}".format(self.state)
            )
        self.primary.mark_failed()
        self.state = ConnectionState.RECOVERING

    def select_backup(self, index: int) -> None:
        """Move the index-th standing backup into first position (used
        by recovery when an earlier-preference backup cannot be
        activated but a later one can)."""
        channels = self.all_backups
        if not 0 <= index < len(channels):
            raise ConnectionStateError(
                "no backup at index {} (have {})".format(index, len(channels))
            )
        if index == 0:
            return
        chosen = channels.pop(index)
        self.backup = chosen
        self.extra_backups = channels

    def promote_backup(self) -> Channel:
        """Switch to the first backup channel (step 3 of DRTP).  The
        backup becomes the new primary; any remaining backups were
        routed against the *old* primary and are the caller's
        responsibility to release and re-plan (resource
        reconfiguration)."""
        if self.state is not ConnectionState.RECOVERING:
            raise ConnectionStateError("promote_backup requires RECOVERING state")
        if self.backup is None:
            raise ConnectionStateError("no backup channel to promote")
        backup = self.backup
        backup.activate()
        self.primary = backup
        self.backup = None
        self.state = ConnectionState.UNPROTECTED
        return backup

    def mark_failed(self) -> None:
        self.state = ConnectionState.FAILED

    def terminate(self) -> None:
        if self.state is ConnectionState.TERMINATED:
            raise ConnectionStateError("connection already terminated")
        self.primary.release()
        for channel in self.all_backups:
            channel.release()
        self.state = ConnectionState.TERMINATED
