"""Long seeded walks of the service state machine
(``tests/test_service_machine.py``) on irregular Waxman networks: every
rule, every invariant after the walk, the oracle diffing each operation,
and conservation of every unit of bandwidth at teardown."""

import pytest

from .test_service_machine import Config, walk


@pytest.mark.slow
@pytest.mark.parametrize(
    "scheme, backups",
    [("D-LSR", 1), ("P-LSR", 1), ("BF", 1), ("disjoint", 1), ("D-LSR", 2)],
    ids=["dlsr", "plsr", "bf", "disjoint", "dlsr-k2"],
)
def test_long_random_interleaving(scheme, backups):
    machine = walk(
        Config(scheme, backups=backups, capacity=8.0, waxman=(24, 77)),
        300, seed=123,
    )
    assert machine.service.counters.requests > 50


@pytest.mark.slow
def test_assessments_stable_under_churn():
    """Assessments interleaved with churn stay pure and answer like the
    full scan (the walk's assess rule), under proximity conduit groups."""
    walk(
        Config("D-LSR", srlg=True, capacity=10.0, waxman=(20, 3)),
        200, seed=3, preload=60,
    )


@pytest.mark.slow
def test_qos_service_under_churn():
    """Every admitted route respects its QoS bound, from a loaded start."""
    walk(
        Config("D-LSR", qos_slack=2, capacity=10.0, waxman=(20, 5)),
        300, seed=5, preload=150,
    )
