"""Per-link state tables and batch cost builders.

:class:`CompiledLinkArrays` holds the six advertised per-link columns
— APLV L1 norm, Conflict-Vector bitset, primary/backup headroom and
the SRLG group aggregates — in flat buffers, keeps them in step with a
:class:`~repro.network.database.LinkStateDatabase`'s ledgers, and
builds the *entire* per-link cost array for a search in one vectorized
pass.

The tables are the database's snapshot, and their dirty set — the
links whose ledgers changed since the last flush — is the only one
there is:

* **live serving** — every read (:meth:`CompiledLinkArrays.sync`)
  flushes the dirty links from the ledgers first, so cost builds and
  the database's per-link records read exactly what the ledgers say
  and nothing waits to be re-advertised;
* **snapshot / injected staleness** — reads do *not* flush; the
  tables stay frozen at the last :meth:`CompiledLinkArrays.flush`,
  which only :meth:`LinkStateDatabase.refresh` calls then, and the
  dirty set is what :meth:`LinkStateDatabase.dirty_links` reports as
  awaiting re-advertisement.

Cost encoding: each builder returns a fresh float64 buffer
(``array("d")``, copied once from the numpy result), one entry per
link id — ``-1.0`` excludes the link (failed links, bandwidth-short
primaries), anything else is the encoded scalar
``(Q + conflict) * scale + 1.0`` consumed by
:mod:`repro.kernels.search`.  Feasibility tests are written
``headroom + BW_EPSILON < bw_req`` — the exact float expression of the
closure reference (:mod:`repro.testing.link_state`), *not* an
algebraically "equivalent" rewrite, which differs in floating point —
and every arithmetic step stays on exactly-representable
integer-valued doubles, so the produced ordering is bit-identical to
the reference's cost tuples (``tests/test_kernel_equivalence.py``
holds it there).
"""

from __future__ import annotations

from array import array
from typing import FrozenSet, Tuple

import numpy as _np

from ..network.conflict_vector import ConflictVector
from ..network.state import BW_EPSILON, ResourceError
from ..routing.costs import Q_PENALTY
from .bitset import and_popcount, bits_of, mask_from_ids, packed_width

_HAS_BITWISE_COUNT = hasattr(_np, "bitwise_count")

#: Per-byte popcount lookup table for the packed bit-matrix path
#: (fallback when the ``bitwise_count`` ufunc is unavailable).
_POP8 = _np.array(
    [bin(value).count("1") for value in range(256)], dtype=_np.int64
)


def _row_popcounts(matrix):
    """Per-row popcount of a packed bit-matrix, as int64."""
    if _HAS_BITWISE_COUNT:
        return _np.bitwise_count(matrix).sum(axis=1, dtype=_np.int64)
    if matrix.dtype != _np.uint8:  # pragma: no cover - numpy < 2.0
        matrix = matrix.view(_np.uint8).reshape(matrix.shape[0], -1)
    return _POP8[matrix].sum(axis=1)  # pragma: no cover - numpy < 2.0

#: Conflict-term flavors a backup cost build understands.
CONFLICT_KINDS = ("plsr", "dlsr", "disjoint")


def _ledger_row(ledger) -> tuple:
    """A ledger's advertised quantities, in
    :meth:`CompiledLinkArrays.row` order."""
    return (
        ledger.aplv_l1(),
        ledger.support_mask(),
        ledger.primary_headroom(),
        ledger.backup_headroom(),
        ledger.group_aplv_l1(),
        ledger.group_support_mask(),
    )


def _word_padded(num_bytes: int) -> int:
    """Round a packed-row byte width up to whole 64-bit words."""
    return ((num_bytes + 7) // 8) * 8


class CompiledLinkArrays:
    """The advertised per-link columns, kept in step with a link-state
    database's ledgers through a dirty-set flush, plus the batch cost
    builders.  Link health and risk groups are never stored: the
    builders read them live from the
    :class:`~repro.network.state.NetworkState`.

    Create via :meth:`LinkStateDatabase.kernel_arrays` (which caches
    one instance per database) rather than directly.
    """

    def __init__(self, database) -> None:
        self._database = database
        self._state = state = database._state
        self._num_links = num_links = state.network.num_links
        # Scalar columns live in stdlib arrays (C-speed per-element
        # writes on the row-write path — numpy scalar assignment costs
        # ~10x more) with numpy views sharing the same buffer for the
        # vectorized cost builds.
        self.l1 = array("q", bytes(8 * num_links))
        self.ph = array("d", bytes(8 * num_links))
        self.bh = array("d", bytes(8 * num_links))
        self.gl1 = array("q", bytes(8 * num_links))
        self._l1_np = _np.frombuffer(self.l1, dtype=_np.int64)
        self._ph_np = _np.frombuffer(self.ph, dtype=_np.float64)
        self._bh_np = _np.frombuffer(self.bh, dtype=_np.float64)
        self._gl1_np = _np.frombuffer(self.gl1, dtype=_np.int64)
        # The packed bit-matrices are views over plain bytearrays: a
        # row write is then one C-level slice copy of
        # ``mask.to_bytes(...)``.  Rows are padded to whole 64-bit
        # words and *viewed* as uint64 so the per-search AND+popcount
        # touches 8x fewer elements than a byte-wise matrix would.
        self._cv_width = _word_padded(packed_width(num_links))
        self._cv_buf = bytearray(num_links * self._cv_width)
        self._cv = _np.frombuffer(self._cv_buf, dtype=_np.uint64).reshape(
            num_links, self._cv_width // 8
        )
        self._gmask_width = 8
        self._gmask_buf = bytearray(num_links * 8)
        self._gmask = _np.frombuffer(
            self._gmask_buf, dtype=_np.uint64
        ).reshape(num_links, 1)
        #: True once the group columns hold rows written while an SRLG
        #: assignment was visible; conflict terms over risk groups
        #: refuse to price from columns never written.
        self.have_group_tables = False
        #: The assignment the group columns were last built under.
        self._group_table_token = None
        #: Identity key for the cached group-of mapping.
        self._groups_token = None
        self._group_of = None
        self._dirty: set = set()
        state.subscribe(self._mark_dirty)
        # Created while serving live or by a refresh — either way the
        # ledgers are what the tables must hold right now.
        self._rebuild_from_ledgers()

    def _mark_dirty(self, link_id: int) -> None:
        self._dirty.add(link_id)

    def dirty_links(self) -> frozenset:
        """Links whose ledgers changed since the last :meth:`flush`."""
        return frozenset(self._dirty)

    # ------------------------------------------------------------------
    # Rows
    # ------------------------------------------------------------------
    def write_row(
        self, link_id: int, l1: int, cv_mask: int, ph: float, bh: float
    ) -> None:
        self.l1[link_id] = l1
        self.ph[link_id] = ph
        self.bh[link_id] = bh
        width = self._cv_width
        offset = link_id * width
        self._cv_buf[offset:offset + width] = cv_mask.to_bytes(
            width, "little"
        )

    def write_group_row(self, link_id: int, gl1: int, gmask: int) -> None:
        self.gl1[link_id] = gl1
        width = self._gmask_width
        need = _word_padded(max(1, packed_width(gmask.bit_length())))
        if need > width:
            wider = bytearray(self._num_links * need)
            for row in range(self._num_links):
                wider[row * need:row * need + width] = (
                    self._gmask_buf[row * width:(row + 1) * width]
                )
            self._gmask_buf = wider
            self._gmask = _np.frombuffer(wider, dtype=_np.uint64).reshape(
                self._num_links, need // 8
            )
            self._gmask_width = width = need
        offset = link_id * width
        self._gmask_buf[offset:offset + width] = gmask.to_bytes(
            width, "little"
        )

    def cv_mask(self, link_id: int) -> int:
        """The link's Conflict Vector read back as an int bitset."""
        width = self._cv_width
        offset = link_id * width
        return int.from_bytes(self._cv_buf[offset:offset + width], "little")

    def group_mask(self, link_id: int) -> int:
        """The link's group-support row read back as an int bitset."""
        width = self._gmask_width
        offset = link_id * width
        return int.from_bytes(
            self._gmask_buf[offset:offset + width], "little"
        )

    def conflict_vector(self, link_id: int) -> ConflictVector:
        """D-LSR's advertised bit-vector, rebuilt from the stored row."""
        return ConflictVector(
            self._num_links, sorted(bits_of(self.cv_mask(link_id)))
        )

    def conflict_count(self, link_id: int, primary_lset) -> int:
        """D-LSR's cost term for one link: ``|CV_i ∩ LSET_P|``."""
        return and_popcount(
            self.cv_mask(link_id), mask_from_ids(primary_lset)
        )

    def group_conflict_count(self, link_id: int, primary_lset) -> int:
        """The same term over risk groups: how many groups of
        ``primary_lset`` already have an interested backup here."""
        groups = self._state.risk_groups
        if groups is None:
            raise ResourceError("no risk groups installed")
        return and_popcount(
            self.group_mask(link_id),
            mask_from_ids(groups.groups_of(primary_lset)),
        )

    def row(self, link_id: int) -> Tuple[int, int, float, float, int, int]:
        """``(l1, cv mask, primary headroom, backup headroom, group l1,
        group mask)`` as stored."""
        return (
            self.l1[link_id],
            self.cv_mask(link_id),
            self.ph[link_id],
            self.bh[link_id],
            self.gl1[link_id],
            self.group_mask(link_id),
        )

    def _live_group_of(self):
        """The state's link→group mapping, cached per
        :class:`~repro.topology.srlg.RiskGroupSet` identity."""
        groups = self._state.risk_groups
        if groups is not self._groups_token:
            self._groups_token = groups
            self._group_of = (
                None
                if groups is None
                else _np.array(groups._group_of, dtype=_np.int64)
            )
        return groups

    # ------------------------------------------------------------------
    # Reads: synced first, whoever reads
    # ------------------------------------------------------------------
    def sync(self) -> "CompiledLinkArrays":
        """What every reader of the tables — the cost builders, the
        database's per-link records, the flood's bandwidth tests —
        calls first: flush while the database serves live, leave a
        snapshot or staleness window frozen at its last refresh."""
        if self._database._serving_live():
            self.flush()
        return self

    def primary_costs(self, bw_req: float) -> "array[float]":
        """Per-link primary costs: ``1.0`` per feasible link, ``-1.0``
        for failed or bandwidth-short links (hard feasibility: a
        primary without bandwidth is useless)."""
        self.sync()
        return self._excluding_failed(
            _np.where(self._ph_np + BW_EPSILON < bw_req, -1.0, 1.0)
        )

    def backup_costs(
        self,
        kind: str,
        bw_req: float,
        primary_lset,
        avoid_lset,
        scale: float,
    ) -> "array[float]":
        """Per-link encoded backup costs
        ``(Q + conflict) * scale + 1.0`` (``-1.0`` for failed links).

        ``kind`` picks the conflict term: ``"plsr"`` (APLV L1, Eq. 4),
        ``"dlsr"`` (CV ∩ LSET popcount, Section 3.2) or ``"disjoint"``
        (0).  ``primary_lset`` feeds the conflict term; ``avoid_lset``
        (a superset including earlier backups) the ``Q`` penalty.  With
        an SRLG assignment visible all terms switch to their group
        aggregates: ``Q`` charges sharing a risk group with the avoided
        set, and the conflict counts per group.
        """
        self.sync()
        if kind not in CONFLICT_KINDS:
            raise ValueError(
                "unknown conflict kind {!r} (want one of {})".format(
                    kind, CONFLICT_KINDS
                )
            )
        lset = frozenset(primary_lset)
        avoid = frozenset(avoid_lset) if avoid_lset is not None else lset
        if self._state.risk_groups is not None:
            costs = self._group_backup_costs(
                kind, bw_req, lset, avoid, scale
            )
        else:
            costs = self._link_backup_costs(kind, bw_req, lset, avoid, scale)
        return self._excluding_failed(costs)

    def _excluding_failed(self, costs) -> "array[float]":
        """``costs`` (a fresh float64 ndarray) with every failed link
        priced ``-1.0``, copied in one pass into the buffer the
        searches read."""
        failed = self._state.failed_links()
        if failed:
            costs[list(failed)] = -1.0
        return array("d", costs.tobytes())

    def _link_backup_costs(
        self,
        kind: str,
        bw_req: float,
        lset: FrozenSet[int],
        avoid: FrozenSet[int],
        scale: float,
    ) -> _np.ndarray:
        q = _np.where(self._bh_np + BW_EPSILON < bw_req, Q_PENALTY, 0.0)
        if avoid:
            # Avoided links get Q regardless of bandwidth — one charge,
            # never 2Q.
            q[list(avoid)] = Q_PENALTY
        if kind == "plsr":
            conflict = self._l1_np
        elif kind == "dlsr":
            lrow = _np.frombuffer(
                mask_from_ids(lset).to_bytes(self._cv_width, "little"),
                dtype=_np.uint64,
            )
            # An LSET occupies only a few of the row's words — AND and
            # popcount just those columns (popcount of the rest is 0).
            cols = _np.flatnonzero(lrow)
            conflict = _row_popcounts(self._cv[:, cols] & lrow[cols])
        else:
            conflict = 0
        # In-place combine: q is a fresh temporary, so fold the
        # conflict term and the (scale, +hop) encoding into it rather
        # than allocating three more 1-per-link temporaries.
        _np.add(q, conflict, out=q)
        _np.multiply(q, scale, out=q)
        _np.add(q, 1.0, out=q)
        return q

    def _group_backup_costs(
        self,
        kind: str,
        bw_req: float,
        lset: FrozenSet[int],
        avoid: FrozenSet[int],
        scale: float,
    ) -> _np.ndarray:
        groups = self._live_group_of()
        if kind != "disjoint" and not self.have_group_tables:
            # The conflict aggregates would come from group columns
            # never written (groups installed after the last refresh).
            raise ResourceError("snapshot database never refreshed")
        avoid_groups = groups.groups_of(avoid)
        avoided_group = _np.zeros(groups.num_groups, dtype=bool)
        if avoid_groups:
            avoided_group[list(avoid_groups)] = True
        q = _np.where(
            avoided_group[self._group_of]
            | (self._bh_np + BW_EPSILON < bw_req),
            Q_PENALTY,
            0.0,
        )
        if kind == "plsr":
            conflict = self._gl1_np
        elif kind == "dlsr":
            width = self._gmask_width
            # Group ids beyond the table width (a wider reinstalled
            # assignment not yet resynced) cannot intersect stored
            # rows — mask them off instead of overflowing to_bytes.
            lset_gmask = mask_from_ids(groups.groups_of(lset))
            lset_gmask &= (1 << (8 * width)) - 1
            grow = _np.frombuffer(
                lset_gmask.to_bytes(width, "little"),
                dtype=_np.uint64,
            )
            conflict = _row_popcounts(self._gmask & grow)
        else:
            conflict = 0
        return (q + conflict) * scale + 1.0

    # ------------------------------------------------------------------
    # Table maintenance
    # ------------------------------------------------------------------
    def _write_ledger(self, ledger, track_groups: bool) -> None:
        row = _ledger_row(ledger)
        self.write_row(ledger.link_id, *row[:4])
        if track_groups:
            self.write_group_row(ledger.link_id, *row[4:])

    def _rebuild_from_ledgers(self) -> None:
        groups = self._state.risk_groups
        for ledger in self._state.ledgers():
            self._write_ledger(ledger, groups is not None)
        if groups is not None:
            self.have_group_tables = True
            self._group_table_token = groups
        self._dirty.clear()

    def flush(self) -> None:
        """Rescan every dirty link from its ledger.  Called by
        :meth:`sync` while the database serves live, and by
        :meth:`LinkStateDatabase.refresh` — never during a snapshot or
        staleness window, which must keep serving frozen tables."""
        state = self._state
        groups = state.risk_groups
        if groups is not None and (
            not self.have_group_tables
            or groups is not self._group_table_token
        ):
            # First sight of an assignment (or a reinstalled one whose
            # group ids mean something new): build the group columns in
            # one full pass, like the database's late-group refresh.
            for ledger in state.ledgers():
                self.write_group_row(ledger.link_id, *_ledger_row(ledger)[4:])
            self.have_group_tables = True
            self._group_table_token = groups
        elif groups is None:
            self.have_group_tables = False
            self._group_table_token = None
        if self._dirty:
            ledger_of = state.ledger
            if not self.have_group_tables:
                # Hot path: every admission dirties ~|route| links, so
                # the rescan loop runs inlined against the ledgers'
                # underlying fields (their exact float expressions:
                # ``free = capacity - prime - spare`` and headrooms
                # ``free`` / ``free + spare``) instead of paying four
                # method/property calls per link via write_row.
                l1 = self.l1
                ph = self.ph
                bh = self.bh
                buf = self._cv_buf
                width = self._cv_width
                for link_id in self._dirty:
                    ledger = ledger_of(link_id)
                    l1[link_id] = ledger._l1
                    spare = ledger._spare_bw
                    free = ledger.capacity - ledger._prime_bw - spare
                    ph[link_id] = free
                    bh[link_id] = free + spare
                    offset = link_id * width
                    buf[offset:offset + width] = (
                        ledger._support_mask.to_bytes(width, "little")
                    )
            else:
                for link_id in self._dirty:
                    self._write_ledger(ledger_of(link_id), True)
            self._dirty.clear()

    def check(self) -> None:
        """Every row not awaiting a flush equals a rebuild from its
        ledger (the group columns too, while they are current)."""
        state = self._state
        current_groups = (
            self.have_group_tables
            and state.risk_groups is self._group_table_token
        )
        columns = 6 if current_groups else 4
        for ledger in state.ledgers():
            link_id = ledger.link_id
            if link_id in self._dirty:
                continue
            expected = _ledger_row(ledger)[:columns]
            stored = self.row(link_id)[:columns]
            if stored != expected:
                raise ResourceError(
                    "kernel table row {} is {} but its ledger says "
                    "{}".format(link_id, stored, expected)
                )
