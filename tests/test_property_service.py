"""Entry points into the service state machine
(``tests/test_service_machine.py``), each over one slice of its
configuration space."""

from hypothesis.stateful import run_state_machine_as_test

from .test_service_machine import SLICE, ServiceMachine


def test_ledgers_always_consistent():
    """Under lossy, crashing, duplicating signaling (no oracle: the
    injector's draws are not mirrored) every ledger still balances
    against the connection table after every rule."""
    run_state_machine_as_test(
        lambda: ServiceMachine(faulted=True), settings=SLICE
    )


def test_spare_never_below_max_demand_when_room():
    """Section 5's sizing rule in the paper's own setting — the shared
    policy, one failure at a time, no risk groups — checked by
    ``check_invariants`` after every rule, differentially."""
    run_state_machine_as_test(
        lambda: ServiceMachine(policy="shared", srlg=False, faulted=False),
        settings=SLICE,
    )


def test_assessment_never_mutates():
    """Every what-if (link, conduit group, node) answers like the full
    scan and leaves the state fingerprint alone, with conduit groups
    installed so all three kinds are asked."""
    run_state_machine_as_test(
        lambda: ServiceMachine(srlg=True, faulted=False), settings=SLICE
    )
