"""The service's connection table.

:class:`ConnectionStore` keeps the live DR-connections in one
insertion-ordered ``dict`` keyed by connection id, with dict semantics:
replacing a key keeps its position.  That order is load-bearing:
recovery plans in it (``reconfigure_unprotected`` iterates
``connections.values()``; the broken-backup sweep in
``apply_failed_links`` visits its subset through
:meth:`ConnectionStore.ordered`), so the golden traces and the
differential oracle both depend on it.

Beside the table the store keeps the **primary-incidence index**: link
id -> the ids of the live connections whose primary crosses that link.
It is how every failure site finds its connections — the ``P_act-bk``
what-if sweep asks about one link at a time and recovery about a
handful, so neither may pay a scan of the whole table per link.  The
index changes exactly where the table or a primary route does (insert,
remove, and :meth:`ConnectionStore.reindex` after recovery promotes a
backup), O(hops) each, and :meth:`ConnectionStore.crossing` answers in
table order — also for a union over several links and after a promoted
connection moved to other links — because each id keeps its insertion
ordinal.  The full scan survives only as the rebuild
:meth:`ConnectionStore.check` compares the index against.
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


class ConnectionStore:
    """Insertion-ordered connection table with a primary-incidence index.

    Supports the mapping subset the service and recovery layers use —
    ``store[id]``, ``store[id] = conn``, ``del store[id]``, ``pop``,
    ``get``, ``in``, ``len``, ``values()``, ``items()``, ``keys()`` —
    with dict iteration order.
    """

    __slots__ = (
        "_connections", "_ordinal", "_indexed", "_crossing", "_inserted",
        "high_water",
    )

    def __init__(self) -> None:
        #: The live connections, in insertion order.
        self._connections: Dict[int, DRConnection] = {}
        #: Per id: its insertion ordinal, so any subset of the live
        #: connections can be put back in iteration order.
        self._ordinal: Dict[int, int] = {}
        #: Per id: the link ids it is indexed under.
        self._indexed: Dict[int, Tuple[int, ...]] = {}
        #: Primary-incidence index: link id -> ids of the live
        #: connections whose primary crosses it (never an empty set).
        self._crossing: Dict[int, Set[int]] = {}
        #: Insertions so far — the next insertion ordinal.
        self._inserted = 0
        #: Peak live population.
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
        connections = self._connections
        if connection_id in connections:
            connections[connection_id] = connection
            self.reindex(connection_id)
            return
        connections[connection_id] = connection
        self._ordinal[connection_id] = self._inserted
        self._inserted += 1
        self._index(connection_id, connection)
        if len(connections) > self.high_water:
            self.high_water = len(connections)

    def __getitem__(self, connection_id: int) -> DRConnection:
        return self._connections[connection_id]

    def __delitem__(self, connection_id: int) -> None:
        self.pop(connection_id)

    def __contains__(self, connection_id: object) -> bool:
        return connection_id in self._connections

    def __len__(self) -> int:
        return len(self._connections)

    def __iter__(self) -> Iterator[int]:
        return iter(self._connections)

    def get(
        self, connection_id: int, default: Optional[DRConnection] = None
    ) -> Optional[DRConnection]:
        return self._connections.get(connection_id, default)

    def pop(self, connection_id: int, default=_MISSING) -> DRConnection:
        """Remove and return a connection (KeyError without default)."""
        connection = self._connections.pop(connection_id, _MISSING)
        if connection is _MISSING:
            if default is _MISSING:
                raise KeyError(connection_id)
            return default
        self._unindex(connection_id)
        del self._ordinal[connection_id]
        return connection  # type: ignore[return-value]

    def keys(self) -> Iterable[int]:
        return self._connections.keys()

    def values(self) -> Iterable[DRConnection]:
        return self._connections.values()

    def items(self) -> Iterable[Tuple[int, DRConnection]]:
        return self._connections.items()

    # ------------------------------------------------------------------
    # Primary-incidence index
    # ------------------------------------------------------------------
    def _index(self, connection_id: int, connection) -> None:
        link_ids = primary_link_ids(connection)
        self._indexed[connection_id] = link_ids
        crossing = self._crossing
        for link_id in link_ids:
            members = crossing.get(link_id)
            if members is None:
                crossing[link_id] = {connection_id}
            else:
                members.add(connection_id)

    def _unindex(self, connection_id: int) -> None:
        crossing = self._crossing
        for link_id in self._indexed.pop(connection_id):
            members = crossing[link_id]
            members.discard(connection_id)
            if not members:
                del crossing[link_id]

    def reindex(self, connection_id: int) -> None:
        """Re-read a live connection's primary after it changed (the
        recovery promotion swaps backup -> primary); its position in
        the iteration order is untouched."""
        connection = self._connections[connection_id]
        self._unindex(connection_id)
        self._index(connection_id, connection)

    def ordered(self, connection_ids: Iterable[int]) -> List[DRConnection]:
        """The live connections among ``connection_ids``, in the order
        :meth:`values` yields them."""
        live = [cid for cid in connection_ids if cid in self._connections]
        live.sort(key=self._ordinal.__getitem__)
        return list(map(self._connections.__getitem__, live))

    def crossing(self, link_ids: Iterable[int]) -> List[DRConnection]:
        """The live connections whose primary crosses any of
        ``link_ids`` — the candidates of that failure — in the order
        :meth:`values` yields them."""
        members = [self._crossing.get(link_id, ()) for link_id in link_ids]
        # The index holds live ids only, so one link's set is read as is.
        ids = members[0] if len(members) == 1 else set().union(*members)
        ids = sorted(ids, key=self._ordinal.__getitem__)
        return list(map(self._connections.__getitem__, ids))

    def crossed_links(self) -> Iterator[int]:
        """Link ids crossed by at least one live primary (unordered)."""
        return iter(self._crossing)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, int]:
        """Live and peak population, for soak reports and benchmarks."""
        return {"live": len(self._connections), "high_water": self.high_water}

    def check(self) -> None:
        """Ordinals rise in iteration order, and the links each id is
        indexed under and the incidence index equal a rebuild from the
        live connections' primaries."""
        connections = self._connections
        if self._ordinal.keys() != connections.keys():
            raise AssertionError("ordinals do not match the live ids")
        ordinals = list(map(self._ordinal.__getitem__, connections))
        if ordinals != sorted(set(ordinals)):
            raise AssertionError("insertion ordinals out of order")
        indexed = {cid: primary_link_ids(conn)
                   for cid, conn in connections.items()}
        if indexed != self._indexed:
            stale = sorted(
                cid for cid in indexed.keys() | self._indexed.keys()
                if indexed.get(cid) != self._indexed.get(cid)
            )
            raise AssertionError(
                "connections {} are indexed under links their primary "
                "does not cross".format(stale)
            )
        rebuilt: Dict[int, Set[int]] = {}
        for connection_id, link_ids in indexed.items():
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
