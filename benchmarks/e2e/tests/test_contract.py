"""BENCHMARK.json against the harness, and against the driver's limits."""

import re

from common import Run
from ledger import per_layer
from run import end_to_end, load_spec
from spans import SPAN_TABLE
from workloads import WORKLOADS

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _toy_runs():
    untraced = Run("w", ops=4, wall_s=1.0, setup_s=[0.1],
                   latencies_ns={"admit": [1000] * 3, "release": [500],
                                 "fail_link": [9000]})
    traced = Run("w", ops=4, wall_s=1.25, client_cpu_s=1.0, owner_cpu_s=1.0)
    traced.spans = [(i, -1, row.name, 10 * i, 10 * i + 5, i)
                    for i, row in enumerate(SPAN_TABLE)]
    traced.counters = {"experiments.p_act_bk_dlsr": 0.99}
    return untraced, traced


def test_spec_lists_the_four_workloads_and_its_own_directory():
    spec = load_spec()
    assert spec["paths"] == ["benchmarks/e2e"]
    assert spec["command"] == ["python3", "benchmarks/e2e/run.py"]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert 1 <= spec["run_seconds"] <= 60


def test_names_units_and_bounds_are_within_the_drivers_limits():
    spec = load_spec()
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("higher", "lower")
    for metric in spec["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in spec["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    assert 1 <= len(spec["end_to_end"]) <= 16
    assert 1 <= len(spec["per_layer"]) <= 128
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in spec["workloads"])
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower",
                      "bound": max(m["bound"] for m in spec["end_to_end"])}]


def test_every_declared_metric_is_one_the_harness_computes():
    spec = load_spec()
    untraced, traced = _toy_runs()
    assert [m["name"] for m in spec["end_to_end"]] == list(
        end_to_end(untraced))
    ledger = per_layer(untraced, traced,
                       {"calibration_s": 0.02, "nproc": 2}, 0.1, False)
    declared = {m["name"] for m in spec["per_layer"]}
    # Counts the services and observers supply arrive through
    # Run.counters; everything else must come out of the ledger.
    from_counters = {
        name for name in declared
        if name.startswith(("experiments.", "core.", "faults.signal_drops",
                            "routing.bf_control", "server."))}
    assert declared - from_counters <= set(ledger)
    assert {row.name for row in SPAN_TABLE} <= declared
