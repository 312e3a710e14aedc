"""The connection store's primary-incidence index, driven through the
service: whatever order admissions, releases, failures, repairs and
backup re-establishments arrive in, the index equals a scan of the live
connections, and every what-if answered from it equals the same
question answered by filtering the whole connection table.  The
interleavings are the service state machine's
(``tests/test_service_machine.py``); this suite adds a sweep of every
link, group and node what-if after each rule."""

from hypothesis.stateful import invariant, run_state_machine_as_test

from repro.core import DRTPService
from repro.routing import DLSRScheme
from repro.topology import mesh_network

from .test_service_machine import SLICE, ServiceMachine


class IndexMachine(ServiceMachine):
    """The service machine, with every what-if checked after each rule
    rather than one per ``assess`` rule."""

    @invariant()
    def every_what_if_answers_like_a_scan(self):
        for kind, count in self.what_ifs():
            for index in range(count):
                answer, scan = self.what_if(kind, index)
                assert answer == scan


def test_index_tracks_every_interleaving():
    """Conduit groups under group-aware spare sizing, so link, group and
    node failures all go through the index."""
    run_state_machine_as_test(
        lambda: IndexMachine(srlg=True, policy="group-aware", faulted=False),
        settings=SLICE,
    )


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
