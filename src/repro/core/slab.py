"""Slab-allocated connection storage.

A long-horizon soak churns through millions of admissions while only
thousands are concurrently active.  A plain ``dict[int, DRConnection]``
already frees the *objects* on release, but its internal table keeps
growing amortization slack, and — more importantly for the kernel
layer — there is no stable small-integer identity for a live
connection that array-oriented bookkeeping could index by.

:class:`SlabConnectionStore` provides both: connections live in an
integer-indexed slot array whose freed slots are reused LIFO, and an
insertion-ordered ``id -> slot`` index preserves the *exact* iteration
order of the dict it replaces.  That ordering is load-bearing: recovery
plans in it (``reconfigure_unprotected`` iterates
``connections.values()``; the broken-backup sweep in
``apply_failed_links`` visits its subset through
:meth:`SlabConnectionStore.ordered`), so the store must be a drop-in
for a dict or the golden traces and the differential oracle would
both shift.

Safety property (hypothesis-tested in ``tests/test_slab_store.py``):
slot reuse never aliases a live connection — a slot is only handed out
after its previous occupant was removed from the index, and every live
id maps to exactly one slot holding exactly that connection.

The store also keeps the **primary-incidence index**: link id -> the
ids of the live connections whose primary crosses that link.  It is
how every failure site finds its connections — the ``P_act-bk`` what-if
sweep asks about one link at a time and recovery about a handful, so
neither may pay a scan of the whole table per link.  The index changes
exactly where the table or a primary route does (insert, remove, and
:meth:`SlabConnectionStore.reindex` after recovery promotes a backup),
O(hops) each, and :meth:`SlabConnectionStore.crossing` answers in store
insertion order — also for a union over several links and after a
promoted connection moved to other links — because each slot remembers
its occupant's insertion ordinal.  The full scan survives only as the
rebuild :meth:`SlabConnectionStore.check` compares the index against.

The store is one of the engine's batch-oriented layers alongside the
compiled cost arrays (:mod:`repro.kernels.arrays`) and the batched
signaling apply (:mod:`repro.kernels.apply`); ``docs/performance.md``
places each in the speedup ledger.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

from .connection import DRConnection

_MISSING = object()


def primary_link_ids(connection) -> Tuple[int, ...]:
    """The links a stored object's primary crosses — all the incidence
    index ever reads off a connection.  An object without a ``primary``
    channel (the store's own model tests churn id-only stand-ins)
    crosses no link and is simply never a failure candidate."""
    primary = getattr(connection, "primary", None)
    return () if primary is None else primary.route.link_ids


class SlabConnectionStore:
    """Dict-compatible connection table backed by reusable slots.

    Supports the exact mapping subset the service and recovery layers
    use — ``store[id]``, ``store[id] = conn``, ``del store[id]``,
    ``pop``, ``get``, ``in``, ``len``, ``values()``, ``items()``,
    ``keys()`` — with dict-identical (insertion) iteration order.
    """

    __slots__ = (
        "_slots",
        "_free",
        "_slot_of",
        "_ordinal",
        "_indexed",
        "_crossing",
        "_inserted",
        "reused_slots",
        "high_water",
    )

    def __init__(self) -> None:
        #: Slot array; freed slots hold ``None`` until reused.
        self._slots: List[Optional[DRConnection]] = []
        #: LIFO free list of slot indices (hot reuse keeps slabs dense).
        self._free: List[int] = []
        #: Insertion-ordered live index: connection id -> slot.
        self._slot_of: Dict[int, int] = {}
        #: Per slot: its occupant's insertion ordinal, so any subset of
        #: the live connections can be put back in iteration order.
        self._ordinal: List[int] = []
        #: Per slot: the link ids its occupant is indexed under.
        self._indexed: List[Tuple[int, ...]] = []
        #: Primary-incidence index: link id -> ids of the live
        #: connections whose primary crosses it (never an empty set).
        self._crossing: Dict[int, Set[int]] = {}
        #: Insertions so far — the next insertion ordinal.
        self._inserted = 0
        #: How many insertions were served from the free list.
        self.reused_slots = 0
        #: Peak live population — the slab's actual footprint bound.
        self.high_water = 0

    # ------------------------------------------------------------------
    # Mapping interface (the subset service/recovery actually use)
    # ------------------------------------------------------------------
    def __setitem__(self, connection_id: int, connection: DRConnection) -> None:
        if connection.connection_id != connection_id:
            raise ValueError(
                "store key {} does not match connection id {}".format(
                    connection_id, connection.connection_id
                )
            )
        slot = self._slot_of.get(connection_id)
        if slot is not None:
            # Dict semantics: replacing keeps the original order.
            self._slots[slot] = connection
            self.reindex(connection_id)
            return
        if self._free:
            slot = self._free.pop()
            self.reused_slots += 1
            self._slots[slot] = connection
            self._ordinal[slot] = self._inserted
        else:
            slot = len(self._slots)
            self._slots.append(connection)
            self._ordinal.append(self._inserted)
            self._indexed.append(())
        self._inserted += 1
        self._slot_of[connection_id] = slot
        self._index(connection_id, slot, connection)
        if len(self._slot_of) > self.high_water:
            self.high_water = len(self._slot_of)

    def __getitem__(self, connection_id: int) -> DRConnection:
        slot = self._slot_of.get(connection_id)
        if slot is None:
            raise KeyError(connection_id)
        return self._slots[slot]  # type: ignore[return-value]

    def __delitem__(self, connection_id: int) -> None:
        self.pop(connection_id)

    def __contains__(self, connection_id: object) -> bool:
        return connection_id in self._slot_of

    def __len__(self) -> int:
        return len(self._slot_of)

    def __iter__(self) -> Iterator[int]:
        return iter(self._slot_of)

    def get(
        self, connection_id: int, default: Optional[DRConnection] = None
    ) -> Optional[DRConnection]:
        """Live connection for ``connection_id``, else ``default``."""
        slot = self._slot_of.get(connection_id)
        if slot is None:
            return default
        return self._slots[slot]

    def pop(self, connection_id: int, default=_MISSING) -> DRConnection:
        """Remove and return a connection (KeyError without default)."""
        slot = self._slot_of.pop(connection_id, None)
        if slot is None:
            if default is _MISSING:
                raise KeyError(connection_id)
            return default
        connection = self._slots[slot]
        self._unindex(connection_id, slot)
        self._slots[slot] = None
        self._free.append(slot)
        return connection  # type: ignore[return-value]

    def keys(self) -> Iterator[int]:
        """Live connection ids in insertion order."""
        return iter(self._slot_of)

    def values(self) -> Iterator[DRConnection]:
        """Live connections in insertion order (dict-identical)."""
        for slot in self._slot_of.values():
            yield self._slots[slot]  # type: ignore[misc]

    def items(self) -> Iterator[Tuple[int, DRConnection]]:
        """``(id, connection)`` pairs in insertion order."""
        for connection_id, slot in self._slot_of.items():
            yield connection_id, self._slots[slot]  # type: ignore[misc]

    # ------------------------------------------------------------------
    # Primary-incidence index
    # ------------------------------------------------------------------
    def _index(self, connection_id: int, slot: int, connection) -> None:
        link_ids = primary_link_ids(connection)
        self._indexed[slot] = link_ids
        crossing = self._crossing
        for link_id in link_ids:
            members = crossing.get(link_id)
            if members is None:
                crossing[link_id] = {connection_id}
            else:
                members.add(connection_id)

    def _unindex(self, connection_id: int, slot: int) -> None:
        crossing = self._crossing
        for link_id in self._indexed[slot]:
            members = crossing[link_id]
            members.discard(connection_id)
            if not members:
                del crossing[link_id]
        self._indexed[slot] = ()

    def reindex(self, connection_id: int) -> None:
        """Re-read a live connection's primary after it changed (the
        recovery promotion swaps backup -> primary); its position in
        the iteration order is untouched."""
        slot = self._slot_of[connection_id]
        self._unindex(connection_id, slot)
        self._index(connection_id, slot, self._slots[slot])

    def ordered(self, connection_ids: Iterable[int]) -> List[DRConnection]:
        """The live connections among ``connection_ids``, in the order
        :meth:`values` yields them."""
        slots = [
            slot
            for slot in map(self._slot_of.get, connection_ids)
            if slot is not None
        ]
        slots.sort(key=self._ordinal.__getitem__)
        connections = self._slots
        return [connections[slot] for slot in slots]  # type: ignore[misc]

    def crossing(self, link_ids: Iterable[int]) -> List[DRConnection]:
        """The live connections whose primary crosses any of
        ``link_ids`` — the candidates of that failure — in the order
        :meth:`values` yields them."""
        crossing = self._crossing
        connection_ids: Set[int] = set()
        for link_id in link_ids:
            connection_ids.update(crossing.get(link_id, ()))
        return self.ordered(connection_ids)

    def crossed_links(self) -> Iterator[int]:
        """Link ids crossed by at least one live primary (unordered)."""
        return iter(self._crossing)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def slot_count(self) -> int:
        """Slots ever allocated (live + free) — bounded by the peak
        concurrent population, *not* by total admissions."""
        return len(self._slots)

    @property
    def free_count(self) -> int:
        """Slots currently on the free list."""
        return len(self._free)

    def stats(self) -> Dict[str, int]:
        """Reuse/footprint counters for soak reports and benchmarks."""
        return {
            "live": len(self._slot_of),
            "slots_allocated": len(self._slots),
            "free": len(self._free),
            "reused_slots": self.reused_slots,
            "high_water": self.high_water,
        }

    def check(self) -> None:
        """Internal invariants: the live index and the slot array are a
        bijection, free slots are empty, and no slot is both live and
        free — the no-aliasing property the hypothesis suite drives —
        and the incidence index equals a rebuild from the live
        connections' primaries, with ordinals rising in iteration
        order."""
        free = set(self._free)
        if len(free) != len(self._free):
            raise AssertionError("free list holds duplicate slots")
        seen_slots = set()
        for connection_id, slot in self._slot_of.items():
            if slot in free:
                raise AssertionError(
                    "slot {} is both live and free".format(slot)
                )
            if slot in seen_slots:
                raise AssertionError(
                    "slot {} aliased by two live connections".format(slot)
                )
            seen_slots.add(slot)
            connection = self._slots[slot]
            if connection is None or connection.connection_id != connection_id:
                raise AssertionError(
                    "slot {} does not hold connection {}".format(
                        slot, connection_id
                    )
                )
        for slot, connection in enumerate(self._slots):
            if connection is None:
                if slot not in free:
                    raise AssertionError(
                        "empty slot {} is not on the free list".format(slot)
                    )
            elif slot not in seen_slots:
                raise AssertionError(
                    "slot {} holds an unindexed connection".format(slot)
                )
        rebuilt: Dict[int, Set[int]] = {}
        previous = -1
        for connection_id, slot in self._slot_of.items():
            if self._ordinal[slot] <= previous:
                raise AssertionError(
                    "connection {} breaks the insertion ordinals".format(
                        connection_id
                    )
                )
            previous = self._ordinal[slot]
            link_ids = primary_link_ids(self._slots[slot])
            if self._indexed[slot] != link_ids:
                raise AssertionError(
                    "connection {} is indexed under links {} but its "
                    "primary crosses {}".format(
                        connection_id, self._indexed[slot], link_ids
                    )
                )
            for link_id in link_ids:
                rebuilt.setdefault(link_id, set()).add(connection_id)
        if rebuilt != self._crossing:
            stale = sorted(
                link_id
                for link_id in rebuilt.keys() | self._crossing.keys()
                if rebuilt.get(link_id) != self._crossing.get(link_id)
            )
            raise AssertionError(
                "incidence index differs from a rebuild on links {}".format(
                    stale
                )
            )
        if any(self._indexed[slot] for slot in free):
            raise AssertionError("a free slot is still indexed under links")
