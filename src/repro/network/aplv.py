"""Accumulated Primary-route Link Vector (APLV).

Section 2.1 defines, for link ``L_i``, the vector ``APLV_i`` whose
j-th element ``a_{i,j}`` is the number of primary channels that
traverse link ``L_j`` and whose backup channels go through ``L_i``::

    a_{i,j} = |{ P_k : P_k in PSET_i and L_j in LSET_{P_k} }|

``PSET_i`` is the set of primary routes whose backups cross ``L_i``.
The L1-norm ``||APLV_i||_1`` drives P-LSR's link cost, the support
(positions with ``a_{i,j} > 0``) is D-LSR's Conflict Vector, and the
maximum element sizes the spare-bandwidth reservation (Section 5: if
any element exceeds ``SC_i``, conflicting backups share spare).

When a backup is registered on ``L_i``, the ``LSET`` of its
*primary* (piggybacked on the backup-path register packet, Section
2.2) increments the matching positions; a release decrements them.
Representation is a sparse mapping because most of the N positions
are zero in practice.

A link's ledger does not keep this vector: its bandwidth-weighted
demand map has the same support, so the ledger keeps ``||APLV||_1``
and the CV beside that map and rebuilds an :class:`APLV` from its
backup registry (:meth:`APLV.from_lsets`) only for tests, fingerprints
and the differential oracle's truth.
"""

from __future__ import annotations

from collections import Counter
from itertools import chain
from typing import FrozenSet, Iterable, Iterator, Tuple


class APLVError(ValueError):
    """Raised on inconsistent APLV updates (e.g. negative counts)."""


class APLV:
    """Sparse accumulated primary-route link vector for one link.

    Args:
        num_links: The network's total link count ``N`` (vector length).
    """

    __slots__ = ("_num_links", "_counts", "_l1")

    def __init__(self, num_links: int) -> None:
        if num_links <= 0:
            raise APLVError("num_links must be positive, got {}".format(num_links))
        self._num_links = num_links
        # A Counter so `add_primary`'s increment runs as one C-level
        # update instead of a per-position Python loop.
        self._counts: Counter = Counter()
        self._l1 = 0

    @classmethod
    def from_lsets(cls, num_links: int, lsets: Iterable[Iterable[int]]) -> "APLV":
        """Build a vector from scratch out of every registered primary
        ``LSET`` — how a ledger's APLV is read (the differential
        oracle's truth)."""
        aplv = cls(num_links)
        counts = aplv._counts
        counts.update(chain.from_iterable(lsets))
        if counts and not 0 <= min(counts) <= max(counts) < num_links:
            for link_id in counts:
                aplv._check_position(link_id)
        aplv._l1 = sum(counts.values())
        return aplv

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------
    def add_primary(self, lset: Iterable[int]) -> None:
        """Register a backup on this link: increment every position in
        the backup's *primary* route link set."""
        lset = tuple(lset)
        if lset and not 0 <= min(lset) <= max(lset) < self._num_links:
            for link_id in lset:
                self._check_position(link_id)
        self._counts.update(lset)
        self._l1 += len(lset)

    def remove_primary(self, lset: Iterable[int]) -> None:
        """Release a backup from this link: decrement the positions of
        its primary's link set.  Raises :class:`APLVError` if a
        position would go negative (release without matching register).
        """
        lset = tuple(lset)
        for link_id in lset:
            self._check_position(link_id)
            if self._counts.get(link_id, 0) <= 0:
                raise APLVError(
                    "releasing primary link {} not present in APLV".format(link_id)
                )
        for link_id in lset:
            remaining = self._counts[link_id] - 1
            if remaining:
                self._counts[link_id] = remaining
            else:
                del self._counts[link_id]
            self._l1 -= 1

    def _check_position(self, link_id: int) -> None:
        if not 0 <= link_id < self._num_links:
            raise APLVError(
                "link id {} out of range [0, {})".format(link_id, self._num_links)
            )

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def num_links(self) -> int:
        return self._num_links

    def element(self, link_id: int) -> int:
        """``a_{i,j}`` for ``j = link_id``."""
        self._check_position(link_id)
        return self._counts.get(link_id, 0)

    def __getitem__(self, link_id: int) -> int:
        return self.element(link_id)

    @property
    def l1_norm(self) -> int:
        """``||APLV_i||_1`` — the P-LSR cost contribution (Section 3.1)."""
        return self._l1

    @property
    def max_element(self) -> int:
        """The worst-case number of simultaneous backup activations on
        this link caused by any single link failure; sizes the spare
        reservation (Section 5)."""
        if not self._counts:
            return 0
        return max(self._counts.values())

    def support(self) -> FrozenSet[int]:
        """Positions with ``a_{i,j} > 0`` — the Conflict Vector bits."""
        return frozenset(self._counts)

    def conflict_count(self, lset: Iterable[int]) -> int:
        """Number of positions of ``lset`` already occupied, i.e. how
        many links of a candidate primary route conflict here.  This is
        the D-LSR cost term ``sum_{L_j in LSET_P} c_{i,j}`` (Section 3.2)."""
        return sum(1 for link_id in lset if self._counts.get(link_id, 0) > 0)

    def is_zero(self) -> bool:
        return not self._counts

    def nonzero_items(self) -> Iterator[Tuple[int, int]]:
        """Iterate ``(position, count)`` pairs, unordered."""
        return iter(self._counts.items())

    def to_dense(self) -> Tuple[int, ...]:
        """Full N-element tuple, 0-padded — matches the paper's vector
        notation (used by tests reproducing the Figure 1/2 examples)."""
        dense = [0] * self._num_links
        for link_id, count in self._counts.items():
            dense[link_id] = count
        return tuple(dense)

    def copy(self) -> "APLV":
        clone = APLV(self._num_links)
        clone._counts = self._counts.copy()
        clone._l1 = self._l1
        return clone

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, APLV):
            return NotImplemented
        return (
            self._num_links == other._num_links and self._counts == other._counts
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "APLV(l1={}, support={})".format(self._l1, sorted(self._counts))
