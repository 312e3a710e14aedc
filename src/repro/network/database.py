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

Refreshes are **incremental**: the snapshot is not a copy of the
database's own but the kernel table
(:meth:`LinkStateDatabase.kernel_arrays`) the link-state schemes plan
from, which subscribes to its
:class:`~repro.network.state.NetworkState`'s change notifications and
keeps an explicit dirty-link set.  Outside live serving the table
stays frozen at the last refresh, so a re-flood rescans only the links
whose ledgers actually changed since then — O(|dirty|) instead of
O(N) — exactly the delta a real router would learn from the flooded
advertisements.  The first refresh (and only the first) builds the
full snapshot.  ``links_rescanned`` counts per-link re-advertisements
so tests and benchmarks can assert the fast path stays incremental; a
database that is serving live has nothing awaiting re-advertisement
(:meth:`LinkStateDatabase.dirty_links` is empty).

Fault injection adds a third, transient regime:
:meth:`LinkStateDatabase.inject_staleness` freezes reads at the
current state *even in live mode* until the next :meth:`refresh` —
bounded link-state staleness, the window between a change and its
re-flood that real protocols always live with.  Link *health* stays
live in every regime: topology changes flood immediately in any
link-state protocol.
"""

from __future__ import annotations

from typing import Optional

from ..topology.srlg import RiskGroupSet
from .conflict_vector import ConflictVector
from .state import NetworkState, ResourceError


class LinkStateDatabase:
    """What a router knows about every link in the network."""

    def __init__(self, state: NetworkState, live: bool = True) -> None:
        self._state = state
        self._live = live
        self._stale = False
        self.staleness_injections = 0
        self.refreshes = 0
        self.links_rescanned = 0
        #: Lazily-created compiled mirror of this database's records
        #: (see :meth:`kernel_arrays`); what snapshot and staleness
        #: reads are served from.
        self._kernel_arrays = None
        #: Lazily-created warm backup-candidate cache (see
        #: :meth:`warmstart_cache`).
        self._warmstart_cache = None
        if not live:
            self.refresh()

    def dirty_links(self) -> frozenset:
        """Links awaiting re-advertisement at the next refresh: those
        whose ledgers changed while reads are frozen (snapshot mode, or
        an injected staleness window).  A database serving live
        advertises every change at once and has none."""
        if self._serving_live():
            return frozenset()
        return self._kernel_arrays.dirty_links()

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
        self.refreshes += 1
        # Counted before a staleness window closes: once it has, a
        # live database reports nothing awaiting re-advertisement.
        self.links_rescanned += (
            self.num_links if self.refreshes == 1 else len(self.dirty_links())
        )
        self._stale = False
        # The kernel table is the snapshot: its dirty set is rescanned
        # exactly here (and, while serving live, before every cost
        # build).
        self.kernel_arrays().flush()

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
        created on first use."""
        if self._warmstart_cache is None:
            # Imported here for the same layering reason as the
            # compiled arrays above.
            from ..routing.warmstart import WarmstartCache

            self._warmstart_cache = WarmstartCache(self._state)
        return self._warmstart_cache

    # ------------------------------------------------------------------
    # Per-link records: every read is served from the kernel table
    # ------------------------------------------------------------------
    def _records(self, link_id: int, groups: bool = False):
        """The kernel table, synced to serve a read of ``link_id``:
        flushed while the database serves live, frozen at the last
        refresh otherwise (``groups``: the read needs the SRLG
        columns, which a frozen table only has once a refresh has
        seen the assignment)."""
        if not 0 <= link_id < self.num_links:
            raise ResourceError("unknown link id {}".format(link_id))
        tables = self.kernel_arrays().sync()
        if groups and not (tables.have_group_tables or self._serving_live()):
            raise ResourceError("snapshot database never refreshed")
        return tables

    def aplv_l1(self, link_id: int) -> int:
        """P-LSR's advertised scalar ``||APLV_i||_1``."""
        return self._records(link_id).l1[link_id]

    def conflict_vector(self, link_id: int) -> ConflictVector:
        """D-LSR's advertised bit-vector ``CV_i``."""
        return self._records(link_id).conflict_vector(link_id)

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
        their Conflict-Vector bit set on ``link_id``."""
        return self._records(link_id).conflict_count(link_id, primary_lset)

    def group_aplv_l1(self, link_id: int) -> int:
        """P-LSR's scalar generalized to risk groups: Σ_g (# backups on
        ``link_id`` whose primary touches group g).  Equal to
        :meth:`aplv_l1` under singleton groups."""
        return self._records(link_id, groups=True).gl1[link_id]

    def group_conflict_count(self, link_id: int, primary_lset) -> int:
        """D-LSR's cost term generalized to risk groups: how many
        distinct risk groups of ``primary_lset`` already have an
        interested backup on ``link_id``.  Equal to
        :meth:`conflict_count` under singleton groups."""
        return self._records(link_id, groups=True).group_conflict_count(
            link_id, primary_lset
        )

    def primary_headroom(self, link_id: int) -> float:
        """Bandwidth a new primary could reserve on the link."""
        return self._records(link_id).ph[link_id]

    def backup_headroom(self, link_id: int) -> float:
        """Bandwidth visible to a backup route search on the link."""
        return self._records(link_id).bh[link_id]
