"""Delta-replicated link-state: snapshots, deltas and shard replicas.

The cluster keeps one authoritative :class:`~repro.network.state.NetworkState`
(in the router process) and N read-only replicas (one per admission
shard).  Replication is epoch-based: the authoritative state is frozen
into numbered epochs at fixed commit boundaries, and each boundary
emits a :class:`LinkStateDelta` carrying only the link records that
changed since the previous boundary — the same incremental-update
discipline the PR-2 APLV fast path uses in-process, lifted across
process boundaries.

A replica record carries exactly the advertised quantities the routing
schemes price from (``||APLV||_1``, the CV support bitset, headrooms,
and the SRLG aggregates) — the six columns of
:class:`~repro.kernels.arrays.LinkTables`.  That table *is* the
replica's storage: :meth:`ReplicaDatabase.ingest` and
:meth:`~ReplicaDatabase.resync` write its rows,
:meth:`~ReplicaDatabase.kernel_arrays` hands it to the link-state
schemes, so a :class:`ReplicaDatabase` bound into a
:class:`~repro.routing.base.RoutingContext` plans on the same array
kernel as the authority — in shards, in the router's inline replanner
and in the sequential cluster reference alike.

Delivery is sequence-numbered and gap-detected: a replica applies
delta ``epoch = current + 1``, ignores duplicates (``epoch <=
current``), and flags any gap for a full :class:`DatabaseSnapshot`
resync — it refuses every further delta until the resync arrives, since
an intermediate update is already lost.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from ..kernels.arrays import LinkTables
from ..kernels.bitset import bits_of, mask_from_ids
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

    def __init__(
        self,
        snapshot: DatabaseSnapshot,
        risk_groups: Optional[RiskGroupSet] = None,
    ) -> None:
        self.num_links = snapshot.num_links
        self._risk_groups = risk_groups
        #: The advertised columns; priced against this replica's own
        #: frozen failed set and risk groups.
        self._tables = LinkTables(snapshot.num_links, self)
        self._tables.have_group_tables = True
        self._load(snapshot)
        self.needs_resync = False
        self.deltas_applied = 0
        self.duplicates_ignored = 0
        self.gaps_detected = 0
        self.resyncs = 0

    def _write(self, link_id: int, record: LinkRecord) -> None:
        l1, support, primary, backup, group_l1, group_support = record
        self._tables.write_row(link_id, l1, support, primary, backup)
        self._tables.write_group_row(
            link_id, group_l1, mask_from_ids(group_support)
        )

    def _load(self, snapshot: DatabaseSnapshot) -> None:
        for link_id, record in enumerate(snapshot.records):
            self._write(link_id, record)
        self._failed: FrozenSet[int] = snapshot.failed
        self.epoch = snapshot.epoch

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
            self._write(link_id, record)
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
        self._load(snapshot)
        self.needs_resync = False
        self.resyncs += 1

    def snapshot(self) -> DatabaseSnapshot:
        """Export the replica's current image (how the router builds
        resync snapshots at past epochs without touching live state)."""
        return DatabaseSnapshot(
            epoch=self.epoch,
            num_links=self.num_links,
            records=tuple(
                self._record(link_id) for link_id in range(self.num_links)
            ),
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

    def kernel_arrays(self) -> LinkTables:
        """The replica's tables, for the link-state schemes' batch
        cost builds — frozen at the replica's epoch (nothing to
        flush), failed links and risk groups read from the replica."""
        return self._tables

    def warmstart_cache(self):
        """Replicas keep no warm-candidate cache (its validity proofs
        follow a live state's mutation feed); every search runs cold."""
        return None

    def _check(self, link_id: int) -> int:
        if not 0 <= link_id < self.num_links:
            raise ResourceError("unknown link id {}".format(link_id))
        return link_id

    def _record(self, link_id: int) -> LinkRecord:
        row = self._tables.row(self._check(link_id))
        return row[:5] + (bits_of(row[5]),)

    def aplv_l1(self, link_id: int) -> int:
        """P-LSR's advertised scalar at the replica's epoch."""
        return self._tables.l1[self._check(link_id)]

    def conflict_vector(self, link_id: int) -> ConflictVector:
        """D-LSR's advertised bit-vector, rebuilt from the support mask."""
        return self._tables.conflict_vector(self._check(link_id))

    def is_failed(self, link_id: int) -> bool:
        """Link health frozen at the replica's epoch (see class docs)."""
        return self._check(link_id) in self._failed

    def failed_links(self) -> FrozenSet[int]:
        """The failed-link set frozen at the replica's epoch."""
        return self._failed

    def conflict_count(self, link_id: int, primary_lset: Iterable[int]) -> int:
        """D-LSR's cost term off the replica's support bitset."""
        return self._tables.conflict_count(
            self._check(link_id), primary_lset
        )

    def group_aplv_l1(self, link_id: int) -> int:
        """P-LSR's SRLG-generalized scalar at the replica's epoch."""
        return self._tables.gl1[self._check(link_id)]

    def group_conflict_count(self, link_id: int, primary_lset: Iterable[int]) -> int:
        """D-LSR's SRLG-generalized cost term at the replica's epoch."""
        return self._tables.group_conflict_count(
            self._check(link_id), primary_lset
        )

    def primary_headroom(self, link_id: int) -> float:
        """Bandwidth a new primary could reserve, at the epoch."""
        return self._tables.ph[self._check(link_id)]

    def backup_headroom(self, link_id: int) -> float:
        """Bandwidth visible to a backup search, at the epoch."""
        return self._tables.bh[self._check(link_id)]
