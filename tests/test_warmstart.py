"""Warm backup-candidate cache — soundness against the cold search.

The cache (:mod:`repro.routing.warmstart`) may serve a stored route
only when the cold compiled search would provably return the identical
result.  These tests pin that bar three ways:

* unit tests for the two validity proofs (epoch equality, digest
  equality) and for eager invalidation of candidates crossing failed
  or mutated links;
* a service-level lockstep: identical churn workloads with the cache
  and without it (the cold arm's ``database.warmstart_cache`` is
  patched to answer a cache whose every probe misses) produce
  identical decisions and fingerprints;
* a hypothesis property that instruments every probe: each *hit* is
  re-checked against a cold flat search under the live cost array, and
  a served route must never cross a currently-failed link.
"""

import random
from array import array

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import DRTPService
from repro.core.errors import ConnectionStateError
from repro.kernels.search import (
    flat_bounded_shortest_path,
    flat_shortest_path,
)
from repro.network import NetworkState
from repro.routing import DLSRScheme, PLSRScheme
from repro.routing.warmstart import WarmProbe, WarmstartCache
from repro.topology import mesh_network

ROWS, COLS = 4, 4


def _mesh_state(capacity=8.0):
    net = mesh_network(ROWS, COLS, capacity)
    return net, NetworkState(net)


def _route(net, nodes):
    from repro.topology import Route

    return Route.from_nodes(net, nodes)


class TestCacheUnit:
    def test_epoch_hit_serves_identical_route(self):
        net, state = _mesh_state()
        cache = WarmstartCache(state)
        costs = array("d", [1.0] * net.num_links)
        route = _route(net, [0, 1, 2])
        probe = cache.probe("k", costs)
        assert not probe.hit
        cache.store(probe, route)
        again = cache.probe("k", costs)
        assert again.hit and again.route is route
        assert cache.stats()["hits"] == 1

    def test_digest_hit_after_unrelated_mutation(self):
        """A mutation elsewhere breaks epoch equality; the candidate
        is served again only once its digest is on file and the cost
        array is byte-identical."""
        net, state = _mesh_state()
        cache = WarmstartCache(state)
        costs = array("d", [1.0] * net.num_links)
        route = _route(net, [0, 1, 2])
        cache.store(cache.probe("k", costs), route)
        # Mutate a ledger far from the route: epoch moves on.
        state.ledger(net.num_links - 1).reserve_primary(1.0)
        miss = cache.probe("k", costs)
        # First store had no digest (never-repeated keys skip hashing),
        # so this probe must miss...
        assert not miss.hit
        cache.store(miss, route)
        # ...but the re-store hashed the array; after another unrelated
        # mutation the digest proof now serves the candidate.
        state.ledger(net.num_links - 1).reserve_primary(1.0)
        hit = cache.probe("k", costs)
        assert hit.hit and hit.route is route
        changed = array("d", costs)
        changed[route.link_ids[0]] = 2.0
        assert not cache.probe("k", changed).hit

    def test_failed_link_invalidates_candidate(self):
        net, state = _mesh_state()
        cache = WarmstartCache(state)
        costs = array("d", [1.0] * net.num_links)
        route = _route(net, [0, 1, 2])
        cache.store(cache.probe("k", costs), route)
        state.mark_link_failed(route.link_ids[1])
        probe = cache.probe("k", costs)
        assert not probe.hit
        assert cache.stats()["invalidated"] == 1

    def test_mutated_route_link_invalidates_candidate(self):
        """Epoch bookkeeping: a candidate whose own route mutated after
        the store is dropped even though the rest of the state moved
        too (per-link change epochs, not just the global epoch)."""
        net, state = _mesh_state()
        cache = WarmstartCache(state)
        costs = array("d", [1.0] * net.num_links)
        route = _route(net, [0, 1, 2])
        cache.store(cache.probe("k", costs), route)
        state.ledger(route.link_ids[0]).reserve_primary(1.0)
        assert not cache.probe("k", costs).hit
        assert cache.stats()["invalidated"] == 1

    def test_cached_no_route_is_served(self):
        net, state = _mesh_state()
        cache = WarmstartCache(state)
        costs = array("d", [1.0] * net.num_links)
        cache.store(cache.probe("k", costs), None)
        probe = cache.probe("k", costs)
        assert probe.hit and probe.route is None

    def test_key_cap_evicts_oldest(self):
        net, state = _mesh_state()
        cache = WarmstartCache(state, max_keys=2)
        costs = array("d", [1.0] * net.num_links)
        for key in ("a", "b", "c"):
            cache.store(cache.probe(key, costs), None)
        assert cache.stats()["keys"] == 2


def _churn(service, ops):
    """Replay an op script; returns the decision/fingerprint log."""
    log = []
    live = []
    failed = []
    num_links = service.state.network.num_links
    num_nodes = service.state.network.num_nodes
    for kind, a, b in ops:
        if kind == "admit":
            src, dst = a % num_nodes, b % num_nodes
            if src == dst:
                continue
            decision = service.request(src, dst, 1.0 + (b % 3) * 0.5)
            log.append((decision.accepted, decision.reason))
            if decision.connection is not None:
                live.append(decision.connection.connection_id)
        elif kind == "release" and live:
            conn_id = live.pop(a % len(live))
            try:
                service.release(conn_id)
            except ConnectionStateError:
                # Torn down by an earlier failure — same in both arms.
                log.append(("stale-release", conn_id))
        elif kind == "fail" and len(failed) < 3:
            link = a % num_links
            if link not in failed:
                impact = service.fail_link(link)
                failed.append(link)
                log.append(
                    tuple(
                        (o.connection_id, o.success)
                        for o in impact.outcomes
                    )
                )
        elif kind == "repair" and failed:
            service.repair_link(failed.pop(a % len(failed)))
        log.append(service.state.fingerprint())
    return log


_ops = st.lists(
    st.tuples(
        st.sampled_from(["admit", "admit", "admit", "release", "fail", "repair"]),
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=0, max_value=10_000),
    ),
    min_size=10,
    max_size=40,
)


class _NeverWarm:
    """The cold arm's cache: every probe misses, nothing is kept."""

    def probe(self, key, costs):
        return WarmProbe(False, None, None, None, costs, False)

    def store(self, probe, route):
        pass


class TestLockstep:
    def _services(self, scheme_cls, capacity=4.0):
        warm = DRTPService(
            mesh_network(ROWS, COLS, capacity), scheme_cls()
        )
        cold = DRTPService(
            mesh_network(ROWS, COLS, capacity), scheme_cls()
        )
        cold.database.warmstart_cache = _NeverWarm
        return warm, cold

    def test_saturated_churn_identical_and_warm_hits(self):
        """A saturated mesh repeats rejected queries; the cache must
        score real hits while the decision stream and fingerprints stay
        identical to the cold arm."""
        rng = random.Random(5)
        ops = []
        for _ in range(400):
            roll = rng.random()
            if roll < 0.85:
                # A narrow endpoint pool at fixed bandwidth: saturated
                # rejections repeat the exact probe key, and rejections
                # mutate nothing — the epoch proof's home turf.
                ops.append(("admit", rng.randrange(6), 6 + rng.randrange(6)))
            elif roll < 0.92:
                ops.append(("release", rng.randrange(10_000), 0))
            elif roll < 0.97:
                ops.append(("fail", rng.randrange(10_000), 0))
            else:
                ops.append(("repair", rng.randrange(10_000), 0))
        warm, cold = self._services(DLSRScheme, capacity=3.0)
        assert _churn(warm, list(ops)) == _churn(cold, list(ops))
        stats = warm.warmstart_stats()
        assert stats is not None and stats["probes"] > 0
        assert stats["hits"] > 0, "saturated tail must produce warm hits"
        assert cold.warmstart_stats() is None

    @settings(max_examples=20, deadline=None)
    @given(ops=_ops, scheme=st.sampled_from([DLSRScheme, PLSRScheme]))
    def test_property_served_candidates_match_cold_search(
        self, ops, scheme
    ):
        """THE soundness property: every warm hit re-run as a cold flat
        search under the live cost array returns the identical route,
        and a served route never crosses a currently-failed link."""
        warm, cold = self._services(scheme)
        net = warm.state.network
        cache = warm.database.warmstart_cache()
        assert cache is not None
        original_probe = WarmstartCache.probe
        checked = {"hits": 0}

        def checked_probe(self, key, costs):
            probe = original_probe(self, key, costs)
            if probe.hit:
                checked["hits"] += 1
                _, src, dst, max_hops = key[0], key[1], key[2], key[3]
                if max_hops is None:
                    rerun = flat_shortest_path(net, src, dst, costs)
                else:
                    rerun = flat_bounded_shortest_path(
                        net, src, dst, costs, max_hops
                    )
                if probe.route is None:
                    assert rerun is None
                else:
                    assert rerun is not None
                    assert rerun.link_ids == probe.route.link_ids
                    for link_id in probe.route.link_ids:
                        assert link_id not in self._state._failed_links
            return probe

        WarmstartCache.probe = checked_probe
        try:
            warm_log = _churn(warm, list(ops))
        finally:
            WarmstartCache.probe = original_probe
        assert warm_log == _churn(cold, list(ops))
