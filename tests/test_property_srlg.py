"""Correlated multi-link failure recovery, as slices of the service
state machine (``tests/test_service_machine.py``).

The central safety property: however many links die at once, the
activation race never *double-spends* spare — the backup bandwidth
activated across a link never exceeds the spare that link held when the
failure struck.  Every failure rule of the machine asserts it of the
full-table assessment it takes before applying the failure.
"""

from hypothesis.stateful import run_state_machine_as_test

from .test_service_machine import SLICE, ServiceMachine


def test_simultaneous_activation_never_double_spends():
    """Regional cuts, node and link failures over the per-link model."""
    run_state_machine_as_test(
        lambda: ServiceMachine(srlg=False, faulted=False), settings=SLICE
    )


def test_group_cut_never_double_spends_and_state_stays_sound():
    """Whole-conduit cuts under group-aware spare sizing, with every
    ledger invariant checked after each rule."""
    run_state_machine_as_test(
        lambda: ServiceMachine(srlg=True, policy="group-aware"),
        settings=SLICE,
    )
