"""The paired-benchmark summary of ``tools/bench_pairs.py``: wins follow
each metric's better direction, ties count for neither side, and a
gain is claimed only by the nine-in-ten rule past the parent's spread."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)


def _runs(**series):
    """One ``run.py`` result line per index, over the metrics given
    as lists."""
    count = len(next(iter(series.values())))
    return [
        {"metrics": {name: {"value": values[i], "unit": "x"}
                     for name, values in series.items()}}
        for i in range(count)
    ]


def test_wins_follow_the_better_direction_and_ties_count_for_neither():
    parent = _runs(ops=[10.0] * 10, p50=[2.0] * 10)
    change = _runs(ops=[11.0] * 9 + [10.0], p50=[1.0] * 8 + [3.0, 2.0])
    rows = {
        row["metric"]: row
        for row in bench_pairs.summarize(
            parent, change, {"ops": "higher", "p50": "lower"}
        )
    }
    assert rows["ops"]["wins"] == 9
    assert rows["p50"]["wins"] == 8
    assert rows["ops"]["ratio"] == pytest.approx(1.1)
    # 9 of 10 won and a median gap (1.0) beyond the parent's zero IQR.
    assert rows["ops"]["claim"]
    assert not rows["p50"]["claim"]


def test_no_claim_inside_the_parents_spread():
    parent = _runs(ops=[8.0, 9.0, 10.0, 11.0, 12.0] * 2)
    change = _runs(ops=[8.5, 9.5, 10.5, 11.5, 12.5] * 2)
    (row,) = bench_pairs.summarize(parent, change, {"ops": "higher"})
    assert row["wins"] == 10
    assert row["parent"] == (9.0, 10.0, 11.0)
    assert not row["claim"]  # 0.5 apart against an IQR of 2.0


def test_quartiles_of_one_run():
    assert bench_pairs.quartiles([3.0]) == (3.0, 3.0, 3.0)
