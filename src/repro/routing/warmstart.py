"""Warm backup-candidate cache — memoized backup searches that stay
bit-identical to cold search.

"Efficient Algorithms to Enhance Recovery Schema in Link State
Protocols" and "A Driven Backup Routing Table to Find Alternative
Disjoint Path" (PAPERS.md) both precompute alternative-path state so
backup establishment starts from a warm candidate set.  This module
adapts that idea to the reproduction's strict bit-exactness bar: the
cache keeps the ``k`` most recent backup candidates per search key and
serves one **only when the cold search provably returns the identical
route** — never "a good enough disjoint path".

Soundness rests on the compiled search being a deterministic pure
function: :func:`repro.kernels.search.flat_shortest_path` (and its
bounded variant) depends only on the frozen adjacency, the endpoints,
the hop bound and the per-link cost array — every relaxation and
tie-break included.  The probe key carries everything that feeds the
cost build (conflict kind, bandwidth, LSET, avoid set, hop bound) plus
the endpoints, so a candidate may be served iff the cost array is
unchanged.  Two validity proofs are accepted:

* **epoch equality** — the cache subscribes to the
  :class:`~repro.network.state.NetworkState` dirty-set notifications;
  if the global mutation epoch and the failed-link set are unchanged
  since the candidate was stored, no cost input can have moved.  This
  is the free check that wins in rejection-heavy tails, where failed
  admissions leave state untouched.
* **digest equality** — otherwise the current cost array's
  ``blake2b`` digest must equal the digest stored with the candidate
  (computed lazily, and only for keys seen more than once, so
  never-repeated keys pay no hashing).

Independently of serving, candidates are **eagerly invalidated**: a
probe drops any candidate whose route crosses a link that failed or
mutated after the candidate was stored (per-link change epochs come
from the same dirty-set subscription that maintains the database's
kernel tables).  Dropping is always safe — the
next cold search simply repopulates — and it is what the hypothesis
property in ``tests/test_warmstart.py`` pins: a served candidate never
crosses a failed or changed link.

``None`` results (no feasible backup) are cached too: re-proving
no-route is exactly as expensive as a full search, and saturated tails
repeat those queries most.
"""

from __future__ import annotations

from array import array
from hashlib import blake2b
from typing import Dict, List, Optional

from ..network.state import NetworkState
from ..topology.graph import Route

def _digest(costs: array) -> bytes:
    """16-byte ``blake2b`` over the exact float bytes of a float64 cost
    buffer, hashed in place — collision-safe enough to treat equality
    as proof (``hash()`` would not be)."""
    return blake2b(costs, digest_size=16).digest()


class _Candidate:
    """One cached search result with its validity evidence."""

    __slots__ = ("digest", "route", "links", "epoch", "failed")

    def __init__(self, digest, route, links, epoch, failed):
        self.digest = digest  # cost-array digest or None (first store)
        self.route = route  # Route, or None for a cached no-route
        self.links = links  # route.link_ids, () for no-route
        self.epoch = epoch  # cache epoch at store time
        self.failed = failed  # failed-link frozenset at store time


class WarmProbe:
    """Outcome of one cache probe; on a miss, hand it back to
    :meth:`WarmstartCache.store` with the cold search's result."""

    __slots__ = ("hit", "route", "_entry", "_digest", "_costs", "_repeat")

    def __init__(self, hit, route, entry, digest, costs, repeat):
        self.hit = hit
        self.route = route
        self._entry = entry
        self._digest = digest
        self._costs = costs
        self._repeat = repeat


class WarmstartCache:
    """``k`` warm backup candidates per search key, invalidated through
    the dirty-set machinery (see the module docstring for the validity
    rules).  Owned by a
    :class:`~repro.network.database.LinkStateDatabase` and shared by
    every scheme routing against it."""

    def __init__(
        self,
        state: NetworkState,
        k: int = 4,
        max_keys: int = 4096,
    ) -> None:
        if k < 1:
            raise ValueError("k must be >= 1, got {}".format(k))
        self._state = state
        self._k = k
        self._max_keys = max_keys
        #: key -> list of candidates, most recently stored/served first.
        self._entries: Dict[object, List[_Candidate]] = {}
        #: Global mutation epoch and per-link last-change epochs, fed
        #: by the same NetworkState subscription that maintains the
        #: database's kernel tables.
        self._epoch = 0
        self._last_changed = array(
            "q", bytes(8 * state.network.num_links)
        )
        self.probes = 0
        self.hits = 0
        self.misses = 0
        self.invalidated = 0
        state.subscribe(self._mark_changed)

    def _mark_changed(self, link_id: int) -> None:
        self._epoch += 1
        self._last_changed[link_id] = self._epoch

    def close(self) -> None:
        """Detach from the state's change notifications."""
        self._state.unsubscribe(self._mark_changed)

    def stats(self) -> dict:
        """Effectiveness counters (the ``repro trace`` digest and the
        service stats surface these)."""
        return {
            "probes": self.probes,
            "hits": self.hits,
            "misses": self.misses,
            "invalidated": self.invalidated,
            "keys": len(self._entries),
        }

    # ------------------------------------------------------------------
    # Probe / store
    # ------------------------------------------------------------------
    def probe(self, key, costs: array) -> WarmProbe:
        """Look for a provably-identical candidate for ``key`` under
        the current cost array.  Always returns a probe; on a miss the
        caller runs the cold search and calls :meth:`store`."""
        self.probes += 1
        entries = self._entries
        candidates = entries.get(key)
        if candidates is None:
            if len(entries) >= self._max_keys:
                del entries[next(iter(entries))]
            entries[key] = fresh = []
            self.misses += 1
            # ``repeat=False``: a never-before-seen key skips digest
            # hashing at store time; only repeat keys pay for proof.
            return WarmProbe(False, None, fresh, None, costs, False)
        epoch = self._epoch
        failed_now = self._state._failed_links
        last_changed = self._last_changed
        digest = None
        index = 0
        while index < len(candidates):
            candidate = candidates[index]
            links = candidate.links
            stale = False
            if failed_now:
                for link_id in links:
                    if link_id in failed_now:
                        stale = True
                        break
            if not stale and epoch != candidate.epoch:
                candidate_epoch = candidate.epoch
                for link_id in links:
                    if last_changed[link_id] > candidate_epoch:
                        stale = True
                        break
            if stale:
                del candidates[index]
                self.invalidated += 1
                continue
            if candidate.epoch == epoch and candidate.failed == failed_now:
                served = candidate
            elif candidate.digest is not None:
                if digest is None:
                    digest = _digest(costs)
                served = candidate if candidate.digest == digest else None
            else:
                served = None
            if served is not None:
                self.hits += 1
                if index:
                    del candidates[index]
                    candidates.insert(0, served)
                return WarmProbe(
                    True, served.route, candidates, digest, costs, True
                )
            index += 1
        self.misses += 1
        return WarmProbe(False, None, candidates, digest, costs, True)

    def store(self, probe: WarmProbe, route: Optional[Route]) -> None:
        """Record a cold search's result against the probe that missed."""
        digest = probe._digest
        if digest is None and probe._repeat:
            digest = _digest(probe._costs)
        links = route.link_ids if route is not None else ()
        candidates = probe._entry
        candidates.insert(
            0,
            _Candidate(
                digest,
                route,
                links,
                self._epoch,
                frozenset(self._state._failed_links),
            ),
        )
        del candidates[self._k :]
