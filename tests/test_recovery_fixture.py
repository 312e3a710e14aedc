"""Pinned recovery: every applied link failure of a seeded run, exactly.

A seeded 8x8 mesh under D-LSR replays a timeline of admissions and
releases with link flaps, one correlated failure burst (the links of
one switch going down together) and lossy signaling.  For every
``fail_link`` the fixture records the activation race's outcome
(affected, activated, reasons), how many survivors the re-protection
wave gave a new backup, and a sha256 of ``state.fingerprint()`` right
after it.  Backup activation, teardown walks and the spare accounting
they drive may be rewritten freely; this file must not move.

Regenerating the fixture (after an *intentional* behavior change)::

    REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_recovery_fixture.py

then review the fixture diff like any other code change.
"""

import hashlib
import json
import os
from collections import Counter
from pathlib import Path

import pytest

from repro.core import DRTPService, signaling
from repro.core.errors import ConnectionStateError
from repro.experiments import make_scheme
from repro.faults import BURST_DOWN, FaultInjector, FaultPlan, RetryPolicy
from repro.faults.plan import (
    FailureBurstFaults,
    LinkFlapFaults,
    SignalingFaults,
)
from repro.server.loadgen import LoadGenConfig, build_timeline
from repro.simulation.rng import derive_seed
from repro.topology import mesh_network

FIXTURE = Path(__file__).parent / "golden" / "recovery_mesh8.json"
SEED = 7
DURATION = 60.0
PLAN = FaultPlan(
    name="recovery-fixture",
    flaps=LinkFlapFaults(rate=0.5, down_min=2.0, down_max=8.0),
    bursts=FailureBurstFaults(
        rate=0.02, size_min=3, size_max=4, down_min=5.0, down_max=15.0,
        correlated=True,
    ),
    signaling=SignalingFaults(
        drop_prob=0.05, duplicate_prob=0.05, crash_prob=0.02
    ),
)


def _network():
    return mesh_network(8, 8, 12.0)


def _fingerprint_digest(state) -> str:
    return hashlib.sha256(repr(state.fingerprint()).encode()).hexdigest()


def replay(monkeypatch) -> dict:
    """The seeded run; one record per ``fail_link``."""
    network = _network()
    events = build_timeline(
        LoadGenConfig(
            arrival_rate=20.0, duration=DURATION, hold_min=5.0,
            hold_max=25.0, master_seed=SEED, fault_plan=PLAN,
        ),
        network.num_nodes, network.num_links, network=network,
    )
    service = DRTPService(
        network, make_scheme("D-LSR"),
        fault_injector=FaultInjector(
            PLAN, seed=derive_seed(SEED, "fixture", "signaling")
        ),
        retry_policy=RetryPolicy(),
    )
    # The re-protection wave resolves this binding at call time: count
    # the walks that gave a survivor its new backup.
    registered = []
    walk = signaling.register_backup_path

    def counting(*args, **kwargs):
        result = walk(*args, **kwargs)
        registered.append(result.success)
        return result

    monkeypatch.setattr(signaling, "register_backup_path", counting)
    failures = []
    for event in events:
        args = event.args
        if event.op == "admit":
            service.request(
                args["source"], args["destination"], args["bw"],
                holding_time=args["hold"], request_id=args["request_id"],
            )
        elif event.op == "release":
            try:
                service.release(args["connection"])
            except ConnectionStateError:
                pass  # torn down by a failure first
        elif event.op == "fail_link":
            del registered[:]
            impact = service.fail_link(args["link"])
            failures.append({
                "link": args["link"],
                "affected": impact.affected,
                "activated": impact.activated,
                "reasons": dict(sorted(impact.reasons().items())),
                "reconfigured": sum(registered),
                "state_sha256": _fingerprint_digest(service.state),
            })
        else:
            service.repair_link(args["link"])
    service.check_invariants()
    counters = service.counters
    return {
        "events": len(events),
        "accepted": counters.accepted,
        "rejected": sum(counters.rejected.values()),
        "signaling_walks": counters.signaling_walks,
        "signaling_retries": counters.signaling_retries,
        "failures": failures,
    }


def _dump(record: dict) -> str:
    return json.dumps(record, indent=1, sort_keys=True) + "\n"


def test_the_plan_has_one_correlated_burst():
    schedule = FaultInjector(
        PLAN, seed=derive_seed(SEED, "loadgen", "faults")
    ).schedule(_network(), DURATION)
    kinds = Counter(fault.kind for fault in schedule)
    assert kinds[BURST_DOWN] == 1
    assert kinds["flap-down"] > 10


def test_recovery_replays_the_pinned_fixture(monkeypatch):
    produced = _dump(replay(monkeypatch))
    if os.environ.get("REGEN_GOLDEN"):
        FIXTURE.write_text(produced)
        pytest.skip("regenerated {}".format(FIXTURE.name))
    pinned = FIXTURE.read_text()
    assert produced == pinned
    record = json.loads(pinned)
    # The fixture exercises what it claims to: survivors, casualties
    # and a re-protection wave.
    assert sum(f["activated"] for f in record["failures"]) > 0
    assert sum(
        f["affected"] - f["activated"] for f in record["failures"]
    ) > 0
    assert sum(f["reconfigured"] for f in record["failures"]) > 0
