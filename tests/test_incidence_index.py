"""The connection store's primary-incidence index, driven through the
service: whatever order admissions, releases, failures, repairs and
backup re-establishments arrive in, the index equals a rebuild from the
live connections, and every what-if answered from it equals the same
question answered by filtering the whole connection table."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import DRTPService
from repro.core import recovery
from repro.core.multiplexing import GroupAwareSparePolicy
from repro.routing import BoundedFloodingScheme, DLSRScheme, PLSRScheme
from repro.topology import mesh_conduit_groups, mesh_network

_ROWS = _COLS = 4
_NODES = _ROWS * _COLS

operations = st.lists(
    st.tuples(
        st.sampled_from(
            [
                "admit", "admit", "admit", "release", "fail_link",
                "fail_group", "fail_node", "repair_link", "reestablish",
            ]
        ),
        st.integers(min_value=0, max_value=_NODES - 1),
        st.integers(min_value=0, max_value=_NODES - 1),
    ),
    min_size=1,
    max_size=40,
)

schemes = st.sampled_from([DLSRScheme, PLSRScheme, BoundedFloodingScheme])


def _assert_index_answers_like_a_scan(service):
    """Index == rebuild, and every what-if the service answers from the
    index equals the pure function over *all* connections."""
    service.check_invariants()
    everyone = list(service.connections())
    state, network = service.state, service.network
    carrying = set()
    for conn in everyone:
        if conn.is_active:
            carrying.update(conn.primary_route.link_ids)
    assert service.links_carrying_primaries() == sorted(carrying)
    for link_id in range(network.num_links):
        assert (
            service.assess_link_failure(link_id).outcomes
            == recovery.assess_link_failure(state, everyone, link_id).outcomes
        )
        assert service.connections_crossing((link_id,)) == [
            conn for conn in everyone
            if conn.primary_route.uses_link(link_id)
        ]
    groups = service.risk_groups
    for group_id in groups.group_ids():
        assert (
            service.assess_group_failure(group_id).outcomes
            == recovery.assess_group_failure(
                state, everyone, group_id, groups
            ).outcomes
        )
    for node in network.nodes():
        assert (
            service.assess_node_failure(
                node, count_endpoint_losses=True
            ).outcomes
            == recovery.assess_node_failure(
                state, everyone, node, network, count_endpoint_losses=True
            ).outcomes
        )
        # A union over many links still comes back in table order.
        links = recovery.incident_link_ids(network, node)
        assert service.connections_crossing(links) == [
            conn for conn in everyone if conn.primary_route.lset & links
        ]


def _assert_recovery_matched_the_scan(service, impact, expected, failed):
    """``expected`` is the full-table assessment taken just before the
    failure was applied: same victims, same order, same reasons."""
    transit = [
        outcome for outcome in impact.outcomes
        if outcome.reason != recovery.ENDPOINT_FAILED
    ]
    assert transit == expected.outcomes
    # The broken-backup sweep missed nobody.
    for conn in service.connections():
        for channel in conn.all_backups:
            assert not channel.route.lset & failed


@given(operations, schemes)
@settings(max_examples=25, deadline=None)
def test_index_tracks_every_interleaving(ops, scheme_cls):
    network = mesh_network(_ROWS, _COLS, 6.0)
    groups = mesh_conduit_groups(network, _ROWS, _COLS)
    service = DRTPService(
        network,
        scheme_cls(),
        spare_policy=GroupAwareSparePolicy(),
        risk_groups=groups,
    )
    state = service.state
    for kind, a, b in ops:
        everyone = list(service.connections())
        if kind == "admit":
            if a != b:
                service.request(a, b, 1.0)
        elif kind == "release":
            if everyone:
                service.release(everyone[a % len(everyone)].connection_id)
        elif kind == "fail_link":
            link_id = (a * _NODES + b) % network.num_links
            if not state.is_link_failed(link_id):
                failed = frozenset({link_id})
                expected = recovery.assess_failed_links(
                    state, everyone, failed
                )
                impact = service.fail_link(link_id, reconfigure=bool(b % 2))
                _assert_recovery_matched_the_scan(
                    service, impact, expected, failed
                )
        elif kind == "fail_group":
            group_id = (a * _NODES + b) % groups.num_groups
            failed = groups.members(group_id)
            expected = recovery.assess_failed_links(state, everyone, failed)
            impact = service.fail_group(group_id, reconfigure=bool(b % 2))
            _assert_recovery_matched_the_scan(
                service, impact, expected, failed
            )
        elif kind == "fail_node":
            failed = recovery.incident_link_ids(network, a)
            expected = recovery.assess_failed_links(
                state, everyone, failed, skip_endpoint=a
            )
            impact = service.fail_node(a, reconfigure=bool(b % 2))
            _assert_recovery_matched_the_scan(
                service, impact, expected, failed
            )
        elif kind == "repair_link":
            down = sorted(state.failed_links())
            if down:
                service.repair_link(down[a % len(down)])
        elif kind == "reestablish":
            bare = service.unprotected_ids()
            if bare:
                service.reestablish_backup(bare[a % len(bare)])
        _assert_index_answers_like_a_scan(service)


def test_links_carrying_primaries_follow_a_promoted_primary():
    """Recovery swaps a survivor's backup in as its primary; the sweep's
    failure sites must move with it."""
    network = mesh_network(3, 3, 10.0)
    service = DRTPService(network, DLSRScheme())
    connection = service.request(0, 8, 1.0).connection
    old_primary = connection.primary_route.link_ids
    old_backup = connection.backup_route.link_ids
    assert service.links_carrying_primaries() == sorted(old_primary)

    impact = service.fail_link(old_primary[0], reconfigure=False)

    assert impact.activated == 1
    assert connection.primary_route.link_ids == old_backup
    assert service.links_carrying_primaries() == sorted(old_backup)
    assert service.connections_crossing(old_primary) == []
    for link_id in old_backup:
        assert service.connections_crossing((link_id,)) == [connection]
        victims = service.assess_link_failure(link_id).outcomes
        assert [o.connection_id for o in victims] == [
            connection.connection_id
        ]
    service.check_invariants()
