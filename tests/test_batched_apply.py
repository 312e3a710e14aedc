"""The fused commit vs. the hop-by-hop walk — seeded scripts and slices.

:mod:`repro.kernels.apply` promises *bit-identical* observable
behavior to the hop-by-hop walks it replaced (the reference service's
:class:`~repro.testing.commit.HopByHopController`): same decisions,
same ``rejected_link`` and ``hops_signaled``, same resize outcomes and
fingerprints — which the service machine diffs after every rule, so
the scripts of old are its slices now.  What a rule cannot show stays
function-level: a fused rejection touches no ``version`` counter (the
compiled cost caches key on them), and an already-registered key
raises the per-hop error.
"""

import pytest

from repro.core import BackupRegisterPacket, SharedSparePolicy
from repro.core.admission import AdmissionController
from repro.kernels import apply
from repro.network import NetworkState, ResourceError
from repro.testing.commit import HopByHopController
from repro.topology import Route, mesh_network

from .test_service_machine import Config, drive, versions

ROWS, COLS = 4, 4


class TestWalkEquivalence:
    @pytest.mark.parametrize("policy", ["shared", "dedicated"])
    def test_register_release_script_lockstep(self, policy):
        """Slice: admission and release churn on a 5x4 mesh wide enough
        that nothing is rejected.  (Version vectors, which a rejection
        makes differ, are compared by the twin-state lockstep of
        ``tests/test_commit_lockstep.py``.)"""
        drive(Config(policy=policy, rows=5, cols=4, capacity=12.0), 60,
              seed=11, preload=20).teardown()

    def test_rejection_script_lockstep(self):
        """Slice: capacity pressure on a 4x4 mesh — register walks are
        rejected mid-route, and the hop-by-hop release packet must leave
        the state the fused validation never touched."""
        machine = drive(Config(capacity=3.0), 60, seed=13, preload=20)
        counters = machine.service.counters
        assert counters.rejected.get("backup-registration-rejected")
        machine.teardown()

    def test_rejection_mutates_nothing(self):
        """A fused rejection is validate-only: fingerprint and versions
        are byte-identical to before the attempt."""
        net = mesh_network(ROWS, COLS, 1.0)
        state = NetworkState(net)
        controller = AdmissionController(state, SharedSparePolicy())
        route = Route.from_nodes(net, [4, 5, 6, 2, 1])
        assert controller.register(BackupRegisterPacket(
            1, Route.from_nodes(net, [0, 1, 2, 3]), frozenset([20]), 1.0
        )).success
        # A primary mid-route starves the third hop: backup headroom
        # there drops to 0.5 < 0.75.
        assert controller.reserve(route.link_ids[2:3], 0.5)
        before = (state.fingerprint(), versions(state))
        result = controller.register(
            BackupRegisterPacket(2, route, frozenset([21]), 0.75)
        )
        assert not result.success
        assert result.rejected_link == route.link_ids[2]
        assert result.hops_signaled == 3
        assert (state.fingerprint(), versions(state)) == before

    def test_duplicate_key_raises_the_per_hop_error(self):
        """An already-registered key is a caller bug: both spellings
        surface the identical exception — the fused one before
        mutating anything."""
        net = mesh_network(ROWS, COLS, 8.0)
        packet = BackupRegisterPacket(
            1, Route.from_nodes(net, [0, 1, 2]), frozenset([30]), 1.0
        )
        errors = []
        for controller in (AdmissionController, HopByHopController):
            walks = controller(NetworkState(net), SharedSparePolicy())
            assert walks.register(packet).success
            with pytest.raises(ResourceError) as raised:
                walks.register(packet)
            errors.append((type(raised.value), str(raised.value)))
        assert errors[0] == errors[1]


@pytest.mark.parametrize("bw", [float("nan"), 5e-10, float("inf")])
def test_invalid_bandwidth_raises_before_mutating(bw):
    """Every walk refuses a bandwidth that is NaN, infinite or not
    above BW_EPSILON, before its first write."""
    net = mesh_network(ROWS, COLS, 8.0)
    state = NetworkState(net)
    policy = SharedSparePolicy()
    route = Route.from_nodes(net, [0, 1, 2])
    assert apply.batch_reserve_primary(state, route.link_ids, 1.0)
    apply.batch_register_walk(state, policy, 1, route.link_ids, {20}, 1.0)
    before = (state.fingerprint(), versions(state))
    walks = (
        lambda: apply.batch_reserve_primary(state, route.link_ids, bw),
        lambda: apply.batch_release_primary(
            state, policy, route.link_ids, bw),
        lambda: apply.batch_register_walk(
            state, policy, 2, route.link_ids, {21}, bw),
        lambda: apply.rejecting_hop(state, 2, route.link_ids, {21}, bw),
        lambda: apply.batch_activate_walk(
            state, policy, 1, route.link_ids, bw),
    )
    for walk in walks:
        with pytest.raises(ResourceError):
            walk()
    assert (state.fingerprint(), versions(state)) == before
    state.check_invariants()


class TestGroupAccounting:
    def test_srlg_script_lockstep(self):
        """Slice: conduit risk groups installed under the group-aware
        policy; the per-group APLV and demand tables ride the
        fingerprint."""
        drive(Config(srlg=True, policy="group-aware"), 60, seed=13,
              preload=20).teardown()


class TestServiceLockstep:
    def test_admission_churn_fingerprints_match(self):
        """Slice: admission churn on the 5x5 mesh, failures and
        repairs included — every commit of the service mirrored hop by
        hop."""
        machine = drive(
            Config(rows=5, cols=5, capacity=6.0), 80, seed=23, preload=30
        )
        assert machine.service.counters.accepted > 30
        machine.teardown()
