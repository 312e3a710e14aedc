"""The connection store: dict semantics and iteration order, the peak
population, and the primary-incidence index against a plain-dict model
under random churn."""

from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ConnectionStore
from repro.core.store import primary_link_ids


class _Conn:
    """Minimal stand-in carrying the one attribute the store checks."""

    __slots__ = ("connection_id", "tag")

    def __init__(self, connection_id, tag=0):
        self.connection_id = connection_id
        self.tag = tag


def test_basic_mapping_semantics():
    store = ConnectionStore()
    a, b = _Conn(1), _Conn(2)
    store[1] = a
    store[2] = b
    assert len(store) == 2
    assert store[1] is a
    assert store.get(2) is b
    assert store.get(9) is None
    assert 1 in store and 9 not in store
    assert list(store) == [1, 2]
    assert list(store.keys()) == [1, 2]
    assert [c.connection_id for c in store.values()] == [1, 2]
    assert [(k, v.connection_id) for k, v in store.items()] == [(1, 1), (2, 2)]
    del store[1]
    assert 1 not in store
    with pytest.raises(KeyError):
        store[1]
    with pytest.raises(KeyError):
        del store[1]
    assert store.pop(9, None) is None
    assert store.pop(2) is b
    with pytest.raises(KeyError):
        store.pop(2)
    assert len(store) == 0
    store.check()


def test_mismatched_id_rejected():
    store = ConnectionStore()
    with pytest.raises(ValueError):
        store[5] = _Conn(6)


def test_replacement_preserves_iteration_position():
    store = ConnectionStore()
    for cid in (10, 20, 30):
        store[cid] = _Conn(cid)
    replacement = _Conn(20, tag=1)
    store[20] = replacement
    assert list(store) == [10, 20, 30]
    assert store[20] is replacement
    # Replacing is not an insertion: the peak population stays put.
    assert store.high_water == 3
    store.check()


def test_high_water_is_the_peak_live_population():
    store = ConnectionStore()
    model = {}
    peak = 0
    for cid in range(1000):
        store[cid] = model[cid] = _Conn(cid)
        peak = max(peak, len(model))
        # The working set breathes between 10 and 30 connections.
        while len(model) > (10 if cid % 200 < 100 else 30):
            oldest = next(iter(model))
            del store[oldest], model[oldest]
    assert peak == 31
    assert store.stats() == {"live": len(model), "high_water": peak}
    store.check()


churn = st.lists(
    st.tuples(st.sampled_from(["add", "remove", "replace"]),
              st.integers(min_value=0, max_value=30)),
    min_size=1,
    max_size=200,
)


@given(churn)
@settings(max_examples=60, deadline=None)
def test_reuse_never_aliases_live_connections(ops):
    """Adding, deleting and replacing never hands one live id another
    id's connection: after every operation the store agrees exactly
    with a plain dict model — same keys, same order, same object
    identity."""
    store = ConnectionStore()
    model = {}
    next_id = 0
    for kind, pick in ops:
        if kind == "add":
            conn = _Conn(next_id)
            store[next_id] = conn
            model[next_id] = conn
            next_id += 1
        elif kind == "remove" and model:
            victim = list(model)[pick % len(model)]
            del store[victim]
            del model[victim]
        elif kind == "replace" and model:
            victim = list(model)[pick % len(model)]
            conn = _Conn(victim, tag=1)
            store[victim] = conn
            model[victim] = conn
        store.check()
        assert list(store) == list(model)
        for cid, conn in model.items():
            assert store[cid] is conn  # identity, not equality: no alias
    assert len(store) == len(model)
    assert store.stats()["live"] == len(model)


# ----------------------------------------------------------------------
# Primary-incidence index
# ----------------------------------------------------------------------
class _Routed(_Conn):
    """Stand-in with just enough shape for the index: a primary channel
    whose route has ``link_ids``."""

    __slots__ = ("primary",)

    def __init__(self, connection_id, link_ids):
        super().__init__(connection_id)
        self.reroute(link_ids)

    def reroute(self, link_ids):
        self.primary = SimpleNamespace(
            route=SimpleNamespace(link_ids=tuple(link_ids))
        )


def _ids(connections):
    return [conn.connection_id for conn in connections]


def test_connection_without_a_primary_crosses_no_link():
    """The index's one seam: an object with no ``primary`` channel is
    stored like any other and is a candidate of no failure."""
    assert primary_link_ids(_Conn(1)) == ()
    assert primary_link_ids(_Routed(2, (4, 5))) == (4, 5)
    store = ConnectionStore()
    store[1] = _Conn(1)
    store[2] = _Routed(2, (4, 5))
    assert list(store.crossed_links()) == [4, 5]
    assert _ids(store.crossing((4,))) == [2]
    assert _ids(store.ordered([2, 1, 99])) == [1, 2]
    store.check()
    del store[2]
    assert list(store.crossed_links()) == []
    assert store.crossing((4, 5)) == []
    store.check()


def test_crossing_answers_in_insertion_order():
    store = ConnectionStore()
    # Ids deliberately not in insertion order; 8 arrives after 5 left.
    store[7] = _Routed(7, (1, 2))
    store[5] = _Routed(5, (2,))
    store[3] = _Routed(3, (2, 9))
    del store[5]
    store[8] = _Routed(8, (9, 1))
    assert _ids(store.crossing((2,))) == [7, 3]
    assert _ids(store.crossing((1,))) == [7, 8]
    # A union over several links is still one pass in table order.
    assert _ids(store.crossing((9, 1, 2, 404))) == [7, 3, 8] == _ids(
        store.values()
    )
    assert sorted(store.crossed_links()) == [1, 2, 9]
    store.check()


def test_reindex_moves_links_but_not_position():
    store = ConnectionStore()
    for cid, links in ((1, (10, 11)), (2, (11,)), (3, (11, 12))):
        store[cid] = _Routed(cid, links)
    store[1].reroute((12, 13))  # what a backup promotion does
    with pytest.raises(AssertionError):
        store.check()  # the rebuild notices the stale entries
    store.reindex(1)
    store.check()
    assert _ids(store.crossing((10,))) == []
    assert _ids(store.crossing((11,))) == [2, 3]
    assert _ids(store.crossing((12,))) == [1, 3]  # 1 keeps its place
    assert sorted(store.crossed_links()) == [11, 12, 13]
    # Replacing a connection re-reads its primary the same way.
    store[2] = _Routed(2, (10,))
    assert _ids(store.crossing((10, 11, 12))) == [1, 2, 3]
    store.check()


routed_churn = st.lists(
    st.tuples(
        st.sampled_from(["add", "remove", "replace", "reroute"]),
        st.integers(min_value=0, max_value=30),
        st.lists(st.integers(min_value=0, max_value=7), max_size=4,
                 unique=True),
    ),
    min_size=1,
    max_size=120,
)


@given(routed_churn)
@settings(max_examples=60, deadline=None)
def test_index_agrees_with_a_scan_under_churn(ops):
    """After every set / replace / pop / reindex the store equals a
    plain dict in content and iteration order, and ``crossing`` equals
    a filtered scan of that dict."""
    store = ConnectionStore()
    model = {}
    next_id = 0
    for kind, pick, links in ops:
        if kind == "add":
            store[next_id] = model[next_id] = _Routed(next_id, links)
            next_id += 1
        elif model:
            victim = list(model)[pick % len(model)]
            if kind == "remove":
                assert store.pop(victim) is model.pop(victim)
                assert store.pop(victim, None) is None
            elif kind == "replace":
                store[victim] = model[victim] = _Routed(victim, links)
            else:
                model[victim].reroute(links)
                store.reindex(victim)
        store.check()
        assert list(store.items()) == list(model.items())
        for link_id in range(8):
            assert store.crossing((link_id,)) == [
                conn for conn in model.values()
                if link_id in conn.primary.route.link_ids
            ]
        assert store.crossing(range(8)) == [
            conn for conn in model.values() if conn.primary.route.link_ids
        ]
