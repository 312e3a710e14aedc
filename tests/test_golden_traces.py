"""Seeded golden-trace tests: routing decisions pinned per scheme.

Each scheme (P-LSR, D-LSR, BF) replays one small deterministic
scenario — seeded Poisson arrivals on the 4x4 mesh plus a scripted
link failure/repair — under an open ``golden.replay`` span, and the
``service.*`` spans directly under it, projected in completion order
onto admission/rejection/recovery/release events, are diffed *exactly*
against a committed JSONL fixture.  Any refactor that silently changes
an admission decision, a primary hop or backup count, an activation
outcome, or event ordering fails here with the first differing event.

Every fixture is replayed by both planners of its scheme: the
production engine (``compiled`` — array tables for the link-state
schemes, the flat-table flood for BF) and the object planner kept as
the oracle's reference in :mod:`repro.testing` (``object`` — cost
closures and dict Dijkstra, the object-per-CDP flood), so the
reference is itself pinned to the committed traces — one trace, two
planners, byte-identical output.  A second replay family installs a
*singleton* SRLG assignment (one risk group per link, the paper's
fault model) and must reproduce the same fixtures byte for byte: group
aggregation over singletons degenerates to the per-link terms in both
planners.

Regenerating fixtures (after an *intentional* behavior change)::

    REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_golden_traces.py

then review the fixture diff like any other code change.  Fixtures
regenerate only from the reference replay — the production engine is
always held to the reference's output, never the other way around.
"""

import json
import os
from pathlib import Path

import pytest

from repro.core import DRTPService
from repro.experiments import make_scheme
from repro.observability import TraceCollector
from repro.simulation import ScenarioSimulator, generate_scenario
from repro.simulation.arrivals import HoldingTimeDistribution
from repro.simulation.scenario import LinkEvent
from repro.testing import make_reference_service
from repro.topology import mesh_network
from repro.topology.srlg import RiskGroupSet

GOLDEN_DIR = Path(__file__).parent / "golden"

SCHEMES = ("P-LSR", "D-LSR", "BF")

#: Planners each scheme's fixture replays under (see module docstring).
SCHEME_PLANNERS = [
    (scheme_name, planner)
    for scheme_name in SCHEMES
    for planner in ("object", "compiled")
]


def golden_path(scheme_name: str) -> Path:
    return GOLDEN_DIR / "trace_{}.jsonl".format(
        scheme_name.lower().replace("-", "_")
    )


def run_traced_scenario(
    scheme_name: str, planner: str = "compiled", singleton_srlg: bool = False
) -> TraceCollector:
    """One deterministic replay: 4x4 mesh, seeded arrivals, one
    scripted mid-run link failure and repair."""
    net = mesh_network(4, 4, capacity=4.0)
    scenario = generate_scenario(
        num_nodes=net.num_nodes,
        arrival_rate=0.5,
        duration=120.0,
        bw_req=1.0,
        pattern="UT",
        # Short lifetimes so the trace pins teardown ordering too.
        holding=HoldingTimeDistribution(minimum=20.0, maximum=80.0),
        seed=97,
    )
    scenario.link_events.extend(
        [LinkEvent(time=55.0, link_id=5, action="fail"),
         LinkEvent(time=90.0, link_id=5, action="repair")]
    )
    service = DRTPService(net, make_scheme(scheme_name))
    if planner == "object":
        service = make_reference_service(service)
    if singleton_srlg:
        service.state.install_risk_groups(RiskGroupSet.singleton(net))
    simulator = ScenarioSimulator(service, scenario, check_invariants=True)
    # The open span carries the collector, so either planner's service
    # records under it without being handed one.
    collector = TraceCollector()
    with collector.span("golden.replay", "test"):
        simulator.run()
    return collector


def _events(span):
    """The decision-trace events one service operation's span stands
    for."""
    tags = span.tags
    if span.name == "service.admit":
        if not tags["accepted"]:
            return [dict(kind="rejected", request=tags["request"],
                         reason=tags["reason"])]
        admitted = dict(
            kind="admitted", connection=tags["request"],
            source=tags["source"], destination=tags["destination"],
            primary_hops=tags["primary_hops"], backups=tags["backups"],
        )
        if tags["degraded"]:
            return [admitted, dict(kind="degraded-admit",
                                   connection=tags["request"])]
        return [admitted]
    if span.name == "service.release":
        return [dict(kind="released", connection=tags["connection"])]
    if span.name == "service.fail_link":
        return [dict(kind="link-failed", link=tags["link"],
                     affected=tags["affected"],
                     activated=tags["activated"], lost=tags["lost"])] + [
            dict(outcome, kind="recovery") for outcome in tags["outcomes"]
        ]
    if span.name == "service.repair":
        (link,) = tags["link_ids"]
        return [dict(kind="link-repaired", link=link)]
    raise AssertionError("no decision event for " + span.name)


def serialize(collector: TraceCollector) -> str:
    (replay,) = collector.spans("golden.replay")
    return "".join(
        json.dumps(event, sort_keys=True) + "\n"
        for span in collector
        if span.parent_id == replay.span_id
        for event in _events(span)
    )


def _diff_against_golden(actual: str, path: Path) -> None:
    assert path.exists(), (
        "missing golden fixture {}; run with REGEN_GOLDEN=1 to create "
        "it".format(path.name)
    )
    expected = path.read_text()
    if actual != expected:
        actual_lines = actual.splitlines()
        expected_lines = expected.splitlines()
        for index, (a, e) in enumerate(zip(actual_lines, expected_lines)):
            assert a == e, (
                "trace diverges from golden fixture at event {}:\n"
                "  expected: {}\n"
                "  actual:   {}".format(index, e, a)
            )
        assert len(actual_lines) == len(expected_lines), (
            "trace length changed: {} events vs {} golden".format(
                len(actual_lines), len(expected_lines)
            )
        )


@pytest.mark.parametrize("scheme_name,planner", SCHEME_PLANNERS)
def test_golden_trace(scheme_name, planner):
    actual = serialize(run_traced_scenario(scheme_name, planner))
    path = golden_path(scheme_name)
    if os.environ.get("REGEN_GOLDEN"):
        if planner != "object":
            pytest.skip("fixtures regenerate from the reference replay only")
        GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
        path.write_text(actual)
        pytest.skip("regenerated {}".format(path.name))
    _diff_against_golden(actual, path)


@pytest.mark.parametrize("scheme_name,planner", SCHEME_PLANNERS)
def test_golden_trace_singleton_srlg(scheme_name, planner):
    """With one risk group per link (the paper's fault model), group
    aggregation must collapse to the per-link terms: the replay — by
    either planner — reproduces the no-SRLG fixture byte for byte."""
    if os.environ.get("REGEN_GOLDEN"):
        pytest.skip("fixtures regenerate from the no-SRLG reference replay")
    actual = serialize(
        run_traced_scenario(scheme_name, planner, singleton_srlg=True)
    )
    _diff_against_golden(actual, golden_path(scheme_name))


@pytest.mark.parametrize("scheme_name", SCHEMES)
def test_golden_trace_is_reproducible(scheme_name):
    """The same seeded scenario produces byte-identical traces on
    back-to-back runs — the determinism the fixtures rely on."""
    first = serialize(run_traced_scenario(scheme_name))
    second = serialize(run_traced_scenario(scheme_name))
    assert first == second


def test_fixtures_have_meaningful_coverage():
    """Golden traces must actually exercise admission, rejection,
    recovery and release, and must pin their scheme: an empty or
    trivial fixture, or one another scheme would reproduce, pins
    nothing."""
    texts = {}
    for scheme_name in SCHEMES:
        texts[scheme_name] = golden_path(scheme_name).read_text()
        kinds = {
            json.loads(line)["kind"]
            for line in texts[scheme_name].splitlines()
        }
        assert "admitted" in kinds
        assert "rejected" in kinds
        assert "released" in kinds
        assert "link-failed" in kinds
    assert len(set(texts.values())) == len(SCHEMES), (
        "two schemes share a golden fixture"
    )
