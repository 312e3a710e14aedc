"""Link-state database views.

Both LSR schemes extend the ordinary link-state database (Section 3):
P-LSR stores, per link, ``||APLV||_1`` and the available bandwidth;
D-LSR stores the Conflict Vector and the available bandwidth.  Every
router floods its own links' records and keeps everyone else's.

In this reproduction the simulator is logically centralized, so the
database is an adapter over the authoritative :class:`NetworkState`.
Two refresh modes are supported:

* **live** (default) — reads always reflect the current state, i.e.
  instantaneous link-state convergence, the assumption the paper's
  evaluation makes;
* **snapshot** — reads reflect the state at the last explicit
  :meth:`LinkStateDatabase.refresh` call, which lets ablation
  experiments quantify the cost of stale link-state information.

Refreshes are **incremental**: the database subscribes to its
:class:`~repro.network.state.NetworkState`'s change notifications and
keeps an explicit dirty-link set, so a re-flood rescans only the links
whose ledgers actually changed since the previous refresh — O(|dirty|)
instead of O(N) — exactly the delta a real router would learn from the
flooded advertisements.  The first refresh (and only the first) builds
the full snapshot.  ``links_rescanned`` counts per-link record rebuilds
so tests and benchmarks can assert the fast path stays incremental.

Fault injection adds a third, transient regime:
:meth:`LinkStateDatabase.inject_staleness` freezes reads at the
current state *even in live mode* until the next :meth:`refresh` —
bounded link-state staleness, the window between a change and its
re-flood that real protocols always live with.  Link *health* stays
live in every regime: topology changes flood immediately in any
link-state protocol.
"""

from __future__ import annotations

from typing import FrozenSet, List, Optional

from ..topology.srlg import RiskGroupSet
from .conflict_vector import ConflictVector
from .state import NetworkState, ResourceError


class LinkStateDatabase:
    """What a router knows about every link in the network."""

    #: Whether routing may compile this database into flat cost tables
    #: (:mod:`repro.kernels`).  Subclasses with per-read semantics the
    #: arrays cannot mirror (e.g. the rebuild-per-read reference
    #: database) opt out by overriding this to False.
    supports_compiled_kernel = True

    def __init__(self, state: NetworkState, live: bool = True) -> None:
        self._state = state
        self._live = live
        self._stale = False
        self.staleness_injections = 0
        self._snapshot_l1: List[int] = []
        self._snapshot_cv: List[ConflictVector] = []
        self._snapshot_primary_headroom: List[float] = []
        self._snapshot_backup_headroom: List[float] = []
        self._snapshot_group_l1: List[int] = []
        self._snapshot_group_support: List[FrozenSet[int]] = []
        #: Links whose ledgers mutated since the last refresh — the
        #: incremental-refresh work list.
        self._dirty_links: set = set()
        self.refreshes = 0
        self.links_rescanned = 0
        #: Lazily-created compiled mirror of this database's records
        #: (see :meth:`kernel_arrays`).
        self._kernel_arrays = None
        #: Lazily-created warm backup-candidate cache (see
        #: :meth:`warmstart_cache`); ``warmstart = False`` disables it
        #: for this database instance.
        self._warmstart_cache = None
        self.warmstart = True
        state.subscribe(self._mark_dirty)
        if not live:
            self.refresh()

    def _mark_dirty(self, link_id: int) -> None:
        self._dirty_links.add(link_id)

    def dirty_links(self) -> frozenset:
        """Links awaiting re-advertisement at the next refresh."""
        return frozenset(self._dirty_links)

    @property
    def live(self) -> bool:
        return self._live

    @property
    def stale(self) -> bool:
        """True while an injected staleness window is open."""
        return self._stale

    @property
    def num_links(self) -> int:
        return self._state.network.num_links

    def _serving_live(self) -> bool:
        return self._live and not self._stale

    @property
    def risk_groups(self) -> Optional[RiskGroupSet]:
        """The network's SRLG assignment, if one is installed."""
        return self._state.risk_groups

    @property
    def has_risk_groups(self) -> bool:
        return self._state.risk_groups is not None

    def refresh(self) -> None:
        """Re-flood: re-snapshot the changed link records and close any
        injected staleness window (no-op effect in live mode).

        Only the links in the dirty set are rescanned; the first call
        builds the complete snapshot."""
        self._stale = False
        self.refreshes += 1
        if not self._snapshot_l1:
            ledgers = self._state.ledgers()
            self._snapshot_l1 = [ledger.aplv.l1_norm for ledger in ledgers]
            self._snapshot_cv = [
                ledger.conflict_vector() for ledger in ledgers
            ]
            self._snapshot_primary_headroom = [
                ledger.primary_headroom() for ledger in ledgers
            ]
            self._snapshot_backup_headroom = [
                ledger.backup_headroom() for ledger in ledgers
            ]
            if self.has_risk_groups:
                self._snapshot_group_l1 = [
                    ledger.group_aplv_l1() for ledger in ledgers
                ]
                self._snapshot_group_support = [
                    ledger.group_support() for ledger in ledgers
                ]
            self.links_rescanned += len(ledgers)
        else:
            track_groups = self.has_risk_groups and bool(
                self._snapshot_group_l1
            )
            for link_id in self._dirty_links:
                ledger = self._state.ledger(link_id)
                self._snapshot_l1[link_id] = ledger.aplv.l1_norm
                self._snapshot_cv[link_id] = ledger.conflict_vector()
                self._snapshot_primary_headroom[link_id] = (
                    ledger.primary_headroom()
                )
                self._snapshot_backup_headroom[link_id] = (
                    ledger.backup_headroom()
                )
                if track_groups:
                    self._snapshot_group_l1[link_id] = ledger.group_aplv_l1()
                    self._snapshot_group_support[link_id] = (
                        ledger.group_support()
                    )
            if self.has_risk_groups and not self._snapshot_group_l1:
                # Risk groups were installed after the first full
                # snapshot: build the group tables in one pass now.
                ledgers = self._state.ledgers()
                self._snapshot_group_l1 = [
                    ledger.group_aplv_l1() for ledger in ledgers
                ]
                self._snapshot_group_support = [
                    ledger.group_support() for ledger in ledgers
                ]
            self.links_rescanned += len(self._dirty_links)
        self._dirty_links.clear()
        if self._kernel_arrays is not None:
            # The compiled mirror follows the same re-flood boundary:
            # its own dirty set is rescanned exactly when the snapshot
            # tables are.
            self._kernel_arrays.flush()

    def inject_staleness(self) -> None:
        """Open a staleness window: freeze all resource reads at the
        current state until the next :meth:`refresh`.  The injecting
        fault schedule is responsible for bounding the window by
        scheduling that refresh (see
        :class:`~repro.faults.injector.FaultInjector`)."""
        self.refresh()
        self._stale = True
        self.staleness_injections += 1

    def kernel_arrays(self):
        """The compiled flat mirror of this database
        (:class:`~repro.kernels.arrays.CompiledLinkArrays`), created on
        first use and kept in lockstep with the refresh discipline.
        One instance is shared by every scheme routing against this
        database."""
        if self._kernel_arrays is None:
            # Imported here: repro.kernels pulls in routing.costs,
            # which imports this module.
            from ..kernels.arrays import CompiledLinkArrays

            self._kernel_arrays = CompiledLinkArrays(self)
        return self._kernel_arrays

    def warmstart_cache(self):
        """The warm backup-candidate cache for schemes routing against
        this database (:class:`~repro.routing.warmstart.WarmstartCache`),
        created on first use.  Returns ``None`` — and the schemes run
        every search cold — when the instance's ``warmstart`` flag or
        the ``REPRO_WARMSTART`` environment gate is off, or when the
        database cannot serve the compiled kernel (candidate validity
        is argued against the deterministic flat searches)."""
        if not self.warmstart or not self.supports_compiled_kernel:
            return None
        if self._warmstart_cache is None:
            # Imported here for the same layering reason as the
            # compiled arrays above.
            from ..routing.warmstart import WarmstartCache, warmstart_enabled

            if not warmstart_enabled():
                self.warmstart = False
                return None
            self._warmstart_cache = WarmstartCache(self._state)
        return self._warmstart_cache

    # ------------------------------------------------------------------
    # Per-link records
    # ------------------------------------------------------------------
    def aplv_l1(self, link_id: int) -> int:
        """P-LSR's advertised scalar ``||APLV_i||_1``."""
        if self._serving_live():
            return self._state.ledger(link_id).aplv.l1_norm
        return self._read_snapshot(self._snapshot_l1, link_id)

    def conflict_vector(self, link_id: int) -> ConflictVector:
        """D-LSR's advertised bit-vector ``CV_i`` (live reads serve the
        ledger's support-versioned CV cache)."""
        if self._serving_live():
            return self._state.ledger(link_id).conflict_vector()
        return self._read_snapshot(self._snapshot_cv, link_id)

    def is_failed(self, link_id: int) -> bool:
        """Link health is topology-change information, flooded
        immediately in any link-state protocol — so both database
        modes read it live."""
        return self._state.is_link_failed(link_id)

    def failed_links(self) -> frozenset:
        """Every link :meth:`is_failed` holds for, as one set — for
        readers that test many links against one instant."""
        return self._state.failed_links()

    def conflict_count(self, link_id: int, primary_lset) -> int:
        """D-LSR's cost term: how many links of ``primary_lset`` have
        their Conflict-Vector bit set on ``link_id``.  In live mode the
        count is read straight off the authoritative APLV (identical
        result, no bit-vector materialization)."""
        if self._serving_live():
            return self._state.ledger(link_id).aplv.conflict_count(primary_lset)
        return self.conflict_vector(link_id).conflict_count(primary_lset)

    def group_aplv_l1(self, link_id: int) -> int:
        """P-LSR's scalar generalized to risk groups: Σ_g (# backups on
        ``link_id`` whose primary touches group g).  Equal to
        :meth:`aplv_l1` under singleton groups."""
        if self._serving_live():
            return self._state.ledger(link_id).group_aplv_l1()
        return self._read_snapshot(self._snapshot_group_l1, link_id)

    def group_conflict_count(self, link_id: int, primary_lset) -> int:
        """D-LSR's cost term generalized to risk groups: how many
        distinct risk groups of ``primary_lset`` already have an
        interested backup on ``link_id``.  Equal to
        :meth:`conflict_count` under singleton groups."""
        if self._serving_live():
            return self._state.ledger(link_id).group_conflict_count(
                primary_lset
            )
        groups = self.risk_groups
        if groups is None:
            raise ResourceError("no risk groups installed")
        support = self._read_snapshot(self._snapshot_group_support, link_id)
        return sum(
            1 for group in groups.groups_of(primary_lset) if group in support
        )

    def primary_headroom(self, link_id: int) -> float:
        """Bandwidth a new primary could reserve on the link."""
        if self._serving_live():
            return self._state.ledger(link_id).primary_headroom()
        return self._read_snapshot(self._snapshot_primary_headroom, link_id)

    def backup_headroom(self, link_id: int) -> float:
        """Bandwidth visible to a backup route search on the link."""
        if self._serving_live():
            return self._state.ledger(link_id).backup_headroom()
        return self._read_snapshot(self._snapshot_backup_headroom, link_id)

    def _read_snapshot(self, table, link_id: int):
        if not 0 <= link_id < self.num_links:
            raise ResourceError("unknown link id {}".format(link_id))
        if not table:
            raise ResourceError("snapshot database never refreshed")
        return table[link_id]
