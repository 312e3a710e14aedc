"""Property-based tests of faulted backup signaling.

The contract under test: however far a register walk gets before a
drop or router crash strands it, the source-initiated idempotent
unwind restores the :class:`NetworkState` *exactly* — APLVs, spare
pools, backup registries, everything — and a retried walk that finally
succeeds leaves the state indistinguishable from a walk that never
faulted at all.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    BackupRegisterPacket,
    SharedSparePolicy,
    register_backup_path,
    unwind_backup_path,
)
from repro.faults import RetryPolicy
from repro.network import NetworkState
from repro.topology import Route, mesh_network

from .scripted import ScriptedInjector

_NET = mesh_network(4, 4, 10.0)


def _random_routes(count, rng):
    """A deterministic pool of loop-free walks through the mesh."""
    routes = []
    while len(routes) < count:
        path = [rng.randrange(_NET.num_nodes)]
        while len(path) < 6:
            steps = [
                link.dst
                for link in _NET.out_links(path[-1])
                if link.dst not in path
            ]
            if not steps:
                break
            path.append(rng.choice(steps))
        if len(path) >= 3:
            routes.append(Route.from_nodes(_NET, path))
    return routes


ROUTES = _random_routes(40, random.Random(2024))


def _packet(route_index, connection_id, bw=1.0):
    backup = ROUTES[route_index]
    primary = ROUTES[(route_index + 7) % len(ROUTES)]
    return BackupRegisterPacket(
        connection_id=connection_id,
        backup_route=backup,
        primary_lset=primary.lset,
        bw_req=bw,
    )


def _loaded_state(background):
    """A state carrying unrelated registrations, so unwinds must leave
    everyone else's resources alone."""
    state = NetworkState(_NET)
    policy = SharedSparePolicy()
    for offset, route_index in enumerate(background):
        register_backup_path(state, policy, _packet(route_index, 100 + offset))
    return state, policy


background_strategy = st.lists(
    st.integers(min_value=0, max_value=len(ROUTES) - 1), max_size=8
)


@given(
    background=background_strategy,
    victim=st.integers(min_value=0, max_value=len(ROUTES) - 1),
    fault_hop=st.integers(min_value=0, max_value=10),
    mode=st.sampled_from(["drop", "crash"]),
)
@settings(max_examples=120, deadline=None)
def test_prefix_fault_unwind_restores_state_exactly(
    background, victim, fault_hop, mode
):
    """Any prefix of a walk can be stranded by a drop or a crash; with
    no retry policy the source unwinds and gives up, and the network
    state is bit-identical to before the walk started."""
    state, policy = _loaded_state(background)
    packet = _packet(victim, connection_id=1)
    hops = len(packet.backup_route.link_ids)
    fault_hop %= hops
    if mode == "drop":
        injector = ScriptedInjector(
            hop_events=[("deliver", 0.0)] * fault_hop + [("drop", 0.0)]
        )
    else:
        injector = ScriptedInjector(crash_script=[fault_hop])

    before = state.fingerprint()
    result = register_backup_path(
        state, policy, packet, injector=injector, retry_policy=None
    )

    assert not result.success
    assert result.gave_up
    assert result.rejected_link is None
    assert (result.drops, result.crashes) == (
        (1, 0) if mode == "drop" else (0, 1)
    )
    assert state.fingerprint() == before
    # The unwind already ran; running it again must be a no-op.
    assert unwind_backup_path(state, policy, packet) == 0
    assert state.fingerprint() == before


@given(
    background=background_strategy,
    victim=st.integers(min_value=0, max_value=len(ROUTES) - 1),
    faulted_walks=st.integers(min_value=0, max_value=3),
    duplicate_hops=st.integers(min_value=0, max_value=6),
)
@settings(max_examples=80, deadline=None)
def test_retried_success_matches_fault_free_registration(
    background, victim, faulted_walks, duplicate_hops
):
    """A walk that survives drops, crashes and duplicate deliveries
    ends in the same state as one that never saw a fault."""
    state, policy = _loaded_state(background)
    reference, reference_policy = _loaded_state(background)
    packet = _packet(victim, connection_id=1)

    # Script: `faulted_walks` walks die at hop 0 (alternating drop and
    # crash), then a clean walk whose first hops deliver twice.
    events = []
    crashes = []
    for walk in range(faulted_walks):
        if walk % 2 == 0:
            events.append(("drop", 0.0))
            crashes.append(None)
        else:
            events.append(("deliver", 0.0))
            crashes.append(0)
    events.extend([("duplicate", 0.0)] * duplicate_hops)
    injector = ScriptedInjector(hop_events=events, crash_script=crashes)

    result = register_backup_path(
        state,
        policy,
        packet,
        injector=injector,
        retry_policy=RetryPolicy(max_attempts=faulted_walks + 1, jitter=0.0),
    )
    clean = register_backup_path(reference, reference_policy, packet)

    assert result.success
    assert clean.success
    assert result.attempts == faulted_walks + 1
    assert state.fingerprint() == reference.fingerprint()
