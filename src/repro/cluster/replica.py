"""Delta-replicated link-state: snapshots, deltas and shard replicas.

The cluster keeps one authoritative :class:`~repro.network.state.NetworkState`
(in the router process) and N read-only replicas (one per admission
shard).  Replication is epoch-based: the authoritative state is frozen
into numbered epochs at fixed commit boundaries, and each boundary
emits a :class:`LinkStateDelta` carrying only the link records that
changed since the previous boundary — the same incremental-update
discipline the PR-2 APLV fast path uses in-process, lifted across
process boundaries.

A replica record stores exactly the advertised quantities the routing
schemes read through the :class:`~repro.network.database.LinkStateDatabase`
API (``||APLV||_1``, the CV support bitset, headrooms, and the SRLG
aggregates), so a :class:`ReplicaDatabase` can be bound into a
:class:`~repro.routing.base.RoutingContext` as a drop-in database.
``supports_compiled_kernel`` is ``False`` on purpose: replicas plan on
the object path, and so does the sequential cluster reference, keeping
the differential oracle comparison apples-to-apples.

Delivery is sequence-numbered and gap-detected: a replica applies
delta ``epoch = current + 1``, ignores duplicates (``epoch <=
current``), and flags any gap for a full :class:`DatabaseSnapshot`
resync — it refuses every further delta until the resync arrives, since
an intermediate update is already lost.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from ..network.conflict_vector import ConflictVector
from ..network.state import LinkLedger, NetworkState, ResourceError
from ..topology.srlg import RiskGroupSet

#: Advertised per-link quantities, in tuple order: ``(aplv_l1,
#: support_mask, primary_headroom, backup_headroom, group_aplv_l1,
#: group_support)``.
LinkRecord = Tuple[int, int, float, float, int, FrozenSet[int]]

#: Ingest verdicts returned by :meth:`ReplicaDatabase.ingest`.
INGEST_APPLIED = "applied"
INGEST_DUPLICATE = "duplicate"
INGEST_GAP = "gap"
INGEST_BLOCKED = "blocked"


def capture_record(ledger: LinkLedger) -> LinkRecord:
    """Freeze one ledger's advertised quantities into a replica record."""
    return (
        ledger.aplv.l1_norm,
        ledger.support_mask(),
        ledger.primary_headroom(),
        ledger.backup_headroom(),
        ledger.group_aplv_l1(),
        ledger.group_support(),
    )


@dataclass(frozen=True)
class DatabaseSnapshot:
    """A full link-state image at one epoch — the resync unit.

    ``records[link_id]`` is the :data:`LinkRecord` for that link;
    ``failed`` is the frozen link-health set at the epoch boundary.
    """

    epoch: int
    num_links: int
    records: Tuple[LinkRecord, ...]
    failed: FrozenSet[int]

    @classmethod
    def capture(cls, state: NetworkState, epoch: int) -> "DatabaseSnapshot":
        """Freeze the authoritative state into a snapshot at ``epoch``."""
        return cls(
            epoch=epoch,
            num_links=state.network.num_links,
            records=tuple(capture_record(ledger) for ledger in state.ledgers()),
            failed=state.failed_links(),
        )

    def fingerprint(self) -> tuple:
        """Hashable exact image: equal fingerprints mean a replica and a
        fresh capture would answer every database read identically."""
        return (self.epoch, self.num_links, self.records, tuple(sorted(self.failed)))


@dataclass(frozen=True)
class LinkStateDelta:
    """The incremental replication unit between consecutive epochs.

    ``changes`` carries records only for links whose ledgers mutated
    since the previous boundary (the dirty set); ``failed`` carries the
    *full* link-health set, because health transitions do not touch the
    ledgers (``mark_link_failed`` bypasses the mutation subscribers)
    and the set is tiny.
    """

    epoch: int
    changes: Tuple[Tuple[int, LinkRecord], ...]
    failed: FrozenSet[int]


class DeltaTracker:
    """Accumulates the authoritative dirty-link set between epoch
    boundaries and freezes it into :class:`LinkStateDelta` objects.

    Subscribes to the :class:`~repro.network.state.NetworkState`
    mutation feed exactly like the in-process incremental database
    does; :meth:`capture` drains the dirty set.
    """

    def __init__(self, state: NetworkState) -> None:
        self._state = state
        self._dirty: Set[int] = set()
        state.subscribe(self._mark_dirty)

    def _mark_dirty(self, link_id: int) -> None:
        self._dirty.add(link_id)

    def capture(self, epoch: int) -> LinkStateDelta:
        """Freeze the changes since the last capture into the delta
        advancing replicas to ``epoch``, and clear the dirty set."""
        changes = tuple(
            (link_id, capture_record(self._state.ledger(link_id)))
            for link_id in sorted(self._dirty)
        )
        self._dirty.clear()
        return LinkStateDelta(
            epoch=epoch, changes=changes, failed=self._state.failed_links()
        )

    def close(self) -> None:
        """Detach from the state's mutation feed."""
        self._state.unsubscribe(self._mark_dirty)


class ReplicaDatabase:
    """A shard's replicated link-state database.

    Mirrors the read API of
    :class:`~repro.network.database.LinkStateDatabase` so routing
    schemes bind to it unchanged, but is fed exclusively by
    :meth:`ingest` (deltas) and :meth:`resync` (snapshots).  Every read
    answers from the replica's current epoch — including
    :meth:`is_failed`, which deliberately deviates from the live
    database's always-live health reads: a shard plans on its frozen
    epoch view, and the commit authority re-validates plans against
    live health before reserving bandwidth.
    """

    #: Replicas plan on the object path (see module docstring).
    supports_compiled_kernel = False

    def __init__(
        self,
        snapshot: DatabaseSnapshot,
        risk_groups: Optional[RiskGroupSet] = None,
    ) -> None:
        self.num_links = snapshot.num_links
        self._records: List[LinkRecord] = list(snapshot.records)
        self._failed: FrozenSet[int] = snapshot.failed
        self.epoch = snapshot.epoch
        self._risk_groups = risk_groups
        self.needs_resync = False
        self.deltas_applied = 0
        self.duplicates_ignored = 0
        self.gaps_detected = 0
        self.resyncs = 0

    # ------------------------------------------------------------------
    # Replication feed
    # ------------------------------------------------------------------

    def ingest(self, delta: LinkStateDelta) -> str:
        """Apply one delta; returns an ingest verdict.

        ``applied``    — in-order, replica advanced one epoch.
        ``duplicate``  — already incorporated; ignored.
        ``gap``        — at least one intermediate delta was lost; the
        replica flags :attr:`needs_resync` and freezes.
        ``blocked``    — in-order arrival while a resync is pending
        (an earlier delta is still missing); refused.
        """
        if delta.epoch <= self.epoch:
            self.duplicates_ignored += 1
            return INGEST_DUPLICATE
        if delta.epoch != self.epoch + 1:
            self.gaps_detected += 1
            self.needs_resync = True
            return INGEST_GAP
        if self.needs_resync:
            return INGEST_BLOCKED
        for link_id, record in delta.changes:
            self._records[link_id] = record
        self._failed = delta.failed
        self.epoch = delta.epoch
        self.deltas_applied += 1
        return INGEST_APPLIED

    def resync(self, snapshot: DatabaseSnapshot) -> None:
        """Replace the replica's image with a full snapshot (gap
        recovery, or catch-up past the router's delta retention)."""
        if snapshot.num_links != self.num_links:
            raise ResourceError(
                "resync snapshot covers {} links, replica has {}".format(
                    snapshot.num_links, self.num_links
                )
            )
        self._records = list(snapshot.records)
        self._failed = snapshot.failed
        self.epoch = snapshot.epoch
        self.needs_resync = False
        self.resyncs += 1

    def snapshot(self) -> DatabaseSnapshot:
        """Export the replica's current image (how the router builds
        resync snapshots at past epochs without touching live state)."""
        return DatabaseSnapshot(
            epoch=self.epoch,
            num_links=self.num_links,
            records=tuple(self._records),
            failed=self._failed,
        )

    def clone(self) -> "ReplicaDatabase":
        """An independent copy at the same epoch (ingest counters reset)."""
        return ReplicaDatabase(self.snapshot(), risk_groups=self._risk_groups)

    def fingerprint(self) -> tuple:
        """Hashable exact image, comparable with
        :meth:`DatabaseSnapshot.fingerprint` of a fresh capture."""
        return self.snapshot().fingerprint()

    # ------------------------------------------------------------------
    # LinkStateDatabase read API
    # ------------------------------------------------------------------

    @property
    def live(self) -> bool:
        """Replicas are never live — they serve their epoch image."""
        return False

    @property
    def stale(self) -> bool:
        return self.needs_resync

    @property
    def risk_groups(self) -> Optional[RiskGroupSet]:
        """The SRLG assignment the replica prices against, if any."""
        return self._risk_groups

    @property
    def has_risk_groups(self) -> bool:
        return self._risk_groups is not None

    def _record(self, link_id: int) -> LinkRecord:
        if not 0 <= link_id < self.num_links:
            raise ResourceError("unknown link id {}".format(link_id))
        return self._records[link_id]

    def aplv_l1(self, link_id: int) -> int:
        """P-LSR's advertised scalar at the replica's epoch."""
        return self._record(link_id)[0]

    def conflict_vector(self, link_id: int) -> ConflictVector:
        """D-LSR's advertised bit-vector, rebuilt from the support mask."""
        mask = self._record(link_id)[1]
        positions = [bit for bit in range(self.num_links) if (mask >> bit) & 1]
        return ConflictVector(self.num_links, positions)

    def is_failed(self, link_id: int) -> bool:
        """Link health frozen at the replica's epoch (see class docs)."""
        self._record(link_id)  # bounds check
        return link_id in self._failed

    def failed_links(self) -> FrozenSet[int]:
        """The failed-link set frozen at the replica's epoch."""
        return self._failed

    def conflict_count(self, link_id: int, primary_lset: Iterable[int]) -> int:
        """D-LSR's cost term off the replica's support bitset."""
        mask = self._record(link_id)[1]
        return sum(1 for member in primary_lset if (mask >> member) & 1)

    def group_aplv_l1(self, link_id: int) -> int:
        """P-LSR's SRLG-generalized scalar at the replica's epoch."""
        return self._record(link_id)[4]

    def group_conflict_count(self, link_id: int, primary_lset: Iterable[int]) -> int:
        """D-LSR's SRLG-generalized cost term at the replica's epoch."""
        if self._risk_groups is None:
            raise ResourceError("no risk groups installed")
        support = self._record(link_id)[5]
        return sum(
            1
            for group in self._risk_groups.groups_of(primary_lset)
            if group in support
        )

    def primary_headroom(self, link_id: int) -> float:
        """Bandwidth a new primary could reserve, at the epoch."""
        return self._record(link_id)[2]

    def backup_headroom(self, link_id: int) -> float:
        """Bandwidth visible to a backup search, at the epoch."""
        return self._record(link_id)[3]
