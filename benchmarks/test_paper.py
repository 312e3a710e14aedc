"""The paper's claims, regenerated and asserted at benchmark scale.

Figures 4-5, the Section 6.2 saturation points, Section 2's >= 50 %
cost of dedicated backups, the Sections 3-4 routing-information
overhead and the DESIGN.md ablations, each at the reduced but
shape-preserving ``QUICK_SCALE`` with master seed 7.  The campaigns
share one process, so Figure 5 reuses Figure 4's cells through the
sweep cache (``repro.experiments.sweep.run_cell_cached``).

Every rendered table lands in ``benchmarks/results/paper.json`` under
its name, so the numbers EXPERIMENTS.md quotes are regenerable; a run
of a subset of the tests rewrites only its own keys.  The full-weight
campaign is ``python -m repro.experiments.run_all --scale paper``.

Run with::

    PYTHONPATH=src python -m pytest -q benchmarks/test_paper.py
"""

import json
from pathlib import Path

import pytest

from repro.analysis import (
    build_curve,
    capacity_overhead_percent,
    discovery_messages_per_request,
    format_series,
    format_table,
    routing_overhead,
)
from repro.core import DedicatedSparePolicy, DRTPService, SharedSparePolicy
from repro.experiments import (
    QUICK_SCALE as SCALE,
    CellSpec,
    activation_pool_ablation,
    backup_count_ablation,
    bf_bound_ablation,
    cell_scenario,
    conflict_awareness_ablation,
    figure4_panel,
    figure5_panel,
    format_figure4,
    format_figure5,
    make_network,
    make_scheme,
    multi_failure_ablation,
    qos_slack_ablation,
    reactive_vs_proactive_ablation,
    staleness_ablation,
    topology_locality_ablation,
)
from repro.simulation import ScenarioSimulator

RESULTS = Path(__file__).parent / "results" / "paper.json"

SEED = 7

#: Arrival-rate subsets per average degree (3 points per figure panel,
#: spanning light load to saturation).
LAMBDAS = {3: (0.3, 0.5, 0.7), 4: (0.5, 0.7, 0.9)}

ABLATION_HEADERS = ("variant", "P_act-bk", "overhead %", "acceptance",
                    "msgs/req")


def record(name, text):
    """Print a rendered table and store it under ``name`` in
    paper.json, keeping every other table already there."""
    tables = json.loads(RESULTS.read_text()) if RESULTS.exists() else {}
    tables[name] = text
    RESULTS.write_text(json.dumps(tables, indent=2, sort_keys=True) + "\n")
    print()
    print(text)


def record_ablation(name, title, rows):
    record(name, format_table(ABLATION_HEADERS,
                              [row.as_tuple() for row in rows], title=title))


def mean(values):
    return sum(values) / len(values)


def replay(spec, scheme, policy=None, require_backup=True):
    """One scenario cell through the simulator under ``scheme``."""
    network = make_network(spec.degree)
    service = DRTPService(network, make_scheme(scheme), spare_policy=policy,
                          require_backup=require_backup)
    result = ScenarioSimulator(
        service, cell_scenario(spec, SCALE, master_seed=SEED),
        warmup=SCALE.warmup, snapshot_count=SCALE.snapshot_count,
    ).run()
    return service, result


def figure4(degree):
    return figure4_panel(degree, lambdas=LAMBDAS[degree], scale=SCALE,
                         master_seed=SEED)


# -- Figure 4: fault tolerance P_act-bk ---------------------------------


@pytest.mark.parametrize("degree", [3, 4])
def test_figure4_panel(degree):
    curves = figure4(degree)
    record("figure4" + "ab"[degree - 3],
           format_figure4(degree, curves, lambdas=LAMBDAS[degree]))
    # Headline: "fault-tolerance of 87% or higher".
    for key, values in curves.items():
        assert min(values) >= 0.87, (key, values)
    # The link-state schemes dominate BF on average per pattern.
    for pattern in ("UT", "NT"):
        bf = mean(curves[("BF", pattern)])
        assert mean(curves[("D-LSR", pattern)]) > bf
        assert mean(curves[("P-LSR", pattern)]) > bf


def test_figure4_connectivity_effect():
    """E = 4 beats E = 3 for every scheme (Section 6.2)."""
    low, high = figure4(3), figure4(4)
    for key in low:
        assert mean(high[key]) >= mean(low[key]) - 0.01, key


# -- Figure 5: capacity overhead ----------------------------------------


@pytest.mark.parametrize("degree", [3, 4])
def test_figure5_panel(degree):
    curves = figure5_panel(degree, lambdas=LAMBDAS[degree], scale=SCALE,
                           master_seed=SEED)
    record("figure5" + "ab"[degree - 3],
           format_figure5(degree, curves, lambdas=LAMBDAS[degree]))
    for key, values in curves.items():
        # Multiplexing keeps overhead far below dedicated backups'
        # >= 50 %; the paper: "all of the three proposed routing schemes
        # decrease the network utilization by at most 25%" (slack for
        # the reduced scale).
        assert max(values) <= 30.0, (key, values)
        assert min(values) >= 0.0


def test_overhead_small_before_saturation():
    """At the lightest E = 4 load the LSR schemes' overhead is small:
    "when the network load is not very high, allocation of spare
    resources ... does not reduce the number of real-time connections"."""
    curves = figure5_panel(4, lambdas=(0.4,), scale=SCALE, master_seed=SEED)
    for scheme in ("D-LSR", "P-LSR"):
        assert curves[(scheme, "UT")][0] <= 10.0


# -- Section 6.2: saturation points ---------------------------------------

SATURATION_LAMBDAS = (0.2, 0.4, 0.6, 0.8, 1.0)


def carried_load_curve(degree):
    """The no-backup baseline's mean active connections over lambda."""
    return build_curve([
        (lam, replay(CellSpec(degree=degree, pattern="UT", lam=lam),
                     "no-backup", require_backup=False)[1]
         .mean_active_connections)
        for lam in SATURATION_LAMBDAS
    ])


def test_saturation_points():
    """"The simulated network gets saturated as lambda reaches 0.5 (0.9)
    for the case of E = 3 (E = 4)": a knee exists, and the denser
    network saturates no earlier."""
    curve3, curve4 = carried_load_curve(3), carried_load_curve(4)
    record("saturation", format_series(
        "lambda", list(SATURATION_LAMBDAS),
        {
            "E=3 active": ["{:.0f}".format(v) for v in curve3.mean_active],
            "E=4 active": ["{:.0f}".format(v) for v in curve4.mean_active],
        },
        title="no-backup carried load vs arrival rate",
    ))
    knee3 = curve3.saturation_lambda(tolerance=0.5)
    knee4 = curve4.saturation_lambda(tolerance=0.5)
    assert knee3 is not None, "E=3 network never saturated"
    # The denser network carries strictly more and saturates later.
    assert curve4.mean_active[-1] > curve3.mean_active[-1]
    if knee4 is not None:
        assert knee4 >= knee3
    # The E=3 knee lands in the paper's neighbourhood (lambda ~ 0.5).
    assert 0.3 <= knee3 <= 0.8


# -- Section 2: dedicated backups cost >= 50 % ----------------------------


def test_dedicated_backup_cost():
    """"Equipping each DR-connection even with a single backup disjoint
    from its primary reduces the network capacity by at least 50%":
    one saturated scenario under D-LSR with shared-spare multiplexing
    and with dedicated per-backup reservations, against no backups."""
    spec = CellSpec(degree=3, pattern="UT", lam=0.6)  # past saturation
    base = replay(spec, "no-backup", require_backup=False)[1]
    shared = replay(spec, "D-LSR", SharedSparePolicy())[1]
    dedicated = replay(spec, "D-LSR", DedicatedSparePolicy())[1]
    base_active = base.mean_active_connections
    shared_overhead = capacity_overhead_percent(
        base_active, shared.mean_active_connections)
    dedicated_overhead = capacity_overhead_percent(
        base_active, dedicated.mean_active_connections)
    record("dedicated_baseline", format_table(
        ("variant", "mean active", "overhead %"),
        [
            ("no backups", "{:.0f}".format(base_active), "0.0"),
            ("shared spare (backup multiplexing)",
             "{:.0f}".format(shared.mean_active_connections),
             "{:.1f}".format(shared_overhead)),
            ("dedicated spare (no multiplexing)",
             "{:.0f}".format(dedicated.mean_active_connections),
             "{:.1f}".format(dedicated_overhead)),
        ],
        title="capacity cost of backups at saturation (E=3, UT, lambda=0.6)",
    ))
    assert dedicated_overhead >= 45.0, "dedicated backups must cost ~>=50%"
    assert shared_overhead <= 30.0, "multiplexing must stay near <=25%"
    assert shared_overhead < dedicated_overhead


# -- Sections 3-4: routing-information overhead ---------------------------


def test_routing_overhead():
    """P-LSR ships smaller records than D-LSR's bit vectors; BF keeps
    no extended database and sends no updates but pays per-request
    discovery traffic instead."""
    spec = CellSpec(degree=3, pattern="UT", lam=0.4)
    num_links = make_network(spec.degree).num_links
    rows, overheads, cdps = [], {}, {}
    for name in ("P-LSR", "D-LSR", "BF"):
        service, result = replay(spec, name)
        overhead = overheads[name] = routing_overhead(
            result, num_links=num_links,
            backup_hops_total=service.counters.backup_hops_total,
        )
        cdps[name] = discovery_messages_per_request(result)
        rows.append((name, overhead.standing_database_bytes,
                     overhead.update_bytes, overhead.discovery_bytes,
                     "{:.1f}".format(cdps[name])))
    record("routing_overhead", format_table(
        ("scheme", "database bytes", "update bytes", "discovery bytes",
         "CDPs/request"),
        rows, title="routing-information overhead (E=3, UT, lambda=0.4)",
    ))
    plsr, dlsr, bf = overheads["P-LSR"], overheads["D-LSR"], overheads["BF"]
    assert plsr.standing_database_bytes < dlsr.standing_database_bytes
    assert bf.update_bytes == 0
    assert bf.standing_database_bytes < plsr.standing_database_bytes
    assert bf.discovery_bytes > 0
    assert cdps["BF"] > 1.0


# -- Ablations of the design choices DESIGN.md calls out ------------------


def test_bf_flood_bound():
    """Section 6.2: "increasing the flooding area beyond this barely
    improves the performance" — fault tolerance saturates while CDP
    cost keeps climbing steeply."""
    rows = bf_bound_ablation(bounds=((0, 0), (2, 2), (4, 4)), scale=SCALE)
    record_ablation("ablation_bf_bound", "BF flood-bound ablation", rows)
    tight, paper, wide = rows
    assert paper.fault_tolerance > tight.fault_tolerance
    gain_first = paper.fault_tolerance - tight.fault_tolerance
    gain_second = wide.fault_tolerance - paper.fault_tolerance
    assert gain_second < gain_first
    assert wide.messages_per_request > 2 * paper.messages_per_request


def test_reactive_vs_proactive():
    """Section 1: reactive recovery "cannot give any guarantee" —
    DRTP's proactive backups must beat post-failure re-routing."""
    rows = reactive_vs_proactive_ablation(scale=SCALE)
    record_ablation("ablation_reactive", "reactive vs proactive", rows)
    proactive, reactive = rows
    assert proactive.fault_tolerance > reactive.fault_tolerance + 0.05
    # Reactive reserves nothing, so it carries more connections.
    assert reactive.overhead_percent <= proactive.overhead_percent


def test_conflict_awareness():
    """The APLV/CV machinery must not lose to conflict-blind backup
    selection."""
    rows = conflict_awareness_ablation(scale=SCALE)
    record_ablation("ablation_conflicts", "conflict awareness", rows)
    by_name = {row.variant: row for row in rows}
    for blind in ("disjoint", "random"):
        assert by_name["D-LSR"].fault_tolerance >= (
            by_name[blind].fault_tolerance - 0.005)
    for row in rows:
        assert row.fault_tolerance >= 0.87


def test_backup_count():
    """Section 2's "one or more backup channels": a second backup buys
    fault tolerance but costs capacity."""
    rows = backup_count_ablation(scale=SCALE)
    record_ablation("ablation_backup_count", "backups per connection", rows)
    single, double = rows
    assert double.fault_tolerance >= single.fault_tolerance
    assert double.overhead_percent >= single.overhead_percent
    assert double.acceptance_ratio <= single.acceptance_ratio + 0.01


def test_topology_locality():
    """At constant average degree, shortcut-rich topologies (higher
    Waxman alpha) shorten routes and must raise acceptance."""
    rows = topology_locality_ablation(scale=SCALE)
    record_ablation("ablation_locality", "Waxman alpha locality", rows)
    local, _mid, shortcutty = rows
    assert shortcutty.acceptance_ratio >= local.acceptance_ratio
    for row in rows:
        assert row.fault_tolerance >= 0.85


def test_multi_failure():
    """Spare pools are sized for one failure at a time; simultaneous
    pair failures must recover strictly less often."""
    rows = multi_failure_ablation(scale=SCALE)
    record_ablation("ablation_multi_failure", "multi-failure model", rows)
    single, double = rows
    assert double.fault_tolerance < single.fault_tolerance
    assert double.fault_tolerance > 0.5  # still far from collapse


def test_qos_slack():
    """Tightening the delay-QoS hop bound (rows loosest to tightest)
    costs acceptance and fault tolerance, and the tight bound bites."""
    rows = qos_slack_ablation(scale=SCALE)
    record_ablation("ablation_qos", "delay-QoS slack", rows)
    loosest, tightest = rows[0], rows[-1]
    assert loosest.fault_tolerance >= tightest.fault_tolerance
    assert loosest.acceptance_ratio >= tightest.acceptance_ratio
    assert tightest.fault_tolerance < loosest.fault_tolerance


def test_link_state_staleness():
    """The paper assumes instantly-converged link state; periodic
    refresh must cost acceptance (stale routes get rolled back)."""
    rows = staleness_ablation(scale=SCALE)
    record_ablation("ablation_staleness", "link-state staleness", rows)
    assert rows[-1].acceptance_ratio <= rows[0].acceptance_ratio + 0.005


def test_activation_pool():
    """Letting activations draw free bandwidth can only help."""
    rows = activation_pool_ablation(scale=SCALE)
    record_ablation("ablation_pool", "activation resource pool", rows)
    spare_only, with_free = rows
    assert with_free.fault_tolerance >= spare_only.fault_tolerance
