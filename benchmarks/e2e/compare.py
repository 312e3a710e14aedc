"""``run.py --compare A B``: is result set B worse than A?

Per workload and end-to-end metric: both values, the relative change
in the metric's *worse* direction, and the bound from
``BENCHMARK.json``.  The exit code is non-zero when any end-to-end
metric is worse beyond its bound or ``failed_share`` rose.  Per-layer
deltas follow, ungated — they say where a change went, not whether it
is acceptable.
"""

from __future__ import annotations

import json
from pathlib import Path


def _load(directory: Path) -> dict:
    return json.loads((Path(directory) / "result.json").read_text())


def worsening(before: float, after: float, better: str) -> float:
    """Relative change of ``after`` against ``before`` in the direction
    that is worse for this metric (negative: it improved)."""
    if before == 0:
        return 0.0 if after == 0 else float("inf")
    change = (after - before) / abs(before)
    return change if better == "lower" else -change


def compare_sets(a_dir: Path, b_dir: Path, spec: dict) -> int:
    a, b = _load(a_dir), _load(b_dir)
    regressions = []
    for workload in spec["workloads"]:
        name = workload["name"]
        wa, wb = a["workloads"].get(name), b["workloads"].get(name)
        if wa is None or wb is None:
            regressions.append("{}: missing from a result set".format(name))
            continue
        print("== {}".format(name))
        print("  {:<28} {:>14} {:>14} {:>9} {:>7}".format(
            "end-to-end", "A", "B", "worse by", "bound"))
        for metric in spec["end_to_end"]:
            key = metric["name"]
            va, vb = wa["end_to_end"][key], wb["end_to_end"][key]
            delta = worsening(va, vb, metric["better"])
            flag = ""
            if delta > metric["bound"]:
                flag = "  REGRESSION"
                regressions.append("{} {}: {:+.1%} beyond {:.0%}".format(
                    name, key, delta, metric["bound"]))
            print("  {:<28} {:>14.4f} {:>14.4f} {:>+9.1%} {:>7.0%}{}".format(
                key, va, vb, delta, metric["bound"], flag))
        fa, fb = wa["failed_share"], wb["failed_share"]
        flag = ""
        if fb > fa:
            flag = "  REGRESSION"
            regressions.append("{} failed_share rose: {} -> {}".format(
                name, fa, fb))
        print("  {:<28} {:>14.6f} {:>14.6f} {:>9} {:>7}{}".format(
            "failed_share", fa, fb, "", "0", flag))
        print("  {:<28} {:>14} {:>14} {:>9}".format(
            "per-layer (ungated)", "A", "B", "change"))
        for metric in spec["per_layer"]:
            key = metric["name"]
            va, vb = wa["per_layer"][key], wb["per_layer"][key]
            if va == 0 and vb == 0:
                continue
            change = (vb - va) / abs(va) if va else float("inf")
            print("  {:<28} {:>14.4f} {:>14.4f} {:>+9.1%}".format(
                key, va, vb, change))
    if regressions:
        print("\nFAIL — B is worse than A beyond the benchmark's bounds:")
        for line in regressions:
            print("  " + line)
        return 1
    print("\nOK — no end-to-end metric of B is worse than A beyond its bound")
    return 0
