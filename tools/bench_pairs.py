#!/usr/bin/env python3
"""Alternating parent/change pairs of one end-to-end benchmark workload.

Extracts the parent revision with ``git archive`` into a temporary
directory, then runs ``benchmarks/e2e/run.py --workload NAME`` there and
in this checkout (the working tree, uncommitted edits included), one
pair at a time, alternating which side runs first.  Each side runs its
own copy of the harness, exactly as a paired comparison of two commits
does; nothing under ``benchmarks/e2e/`` is edited.  The run length is
the harness's own (``run_seconds`` of ``BENCHMARK.json``), so a pair
measures what the benchmark measures.

For every metric of the run's JSON line it prints each side's median
and quartiles, the change / parent ratio of the medians and how many
pairs the change won (ties count for neither side), plus whether every
run was ``correct`` and how many operations failed.  A gain is claimed
only when the change wins at least nine pairs in ten and the medians
differ by more than the parent's interquartile range; the ``claim``
column says whether that rule holds.

Run from anywhere::

    python3 tools/bench_pairs.py --parent HEAD~1 \\
        --workload serve-wax500-serial --pairs 10 --seed 7

``--trace 1`` pairs the traced runs (the per-layer metrics) instead.
``--record FILE`` also writes every run's JSON line as a JSON file.
Uses the standard library only.
"""

from __future__ import annotations

import argparse
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path
from typing import Dict, List

REPO_ROOT = Path(__file__).resolve().parent.parent
RUNNER = Path("benchmarks") / "e2e" / "run.py"
ROW = "{:<30} {:>12.4f} {:<25} {:>12.4f} {:<25} {:>7.3f}x {:>2}/{:<2} {}"


def extract(revision: str, into: Path) -> Path:
    """The tree of ``revision`` written under ``into``."""
    archive = subprocess.run(
        ["git", "-C", str(REPO_ROOT), "archive", "--format=tar", revision],
        stdout=subprocess.PIPE, check=True,
    ).stdout
    checkout = into / "tree"
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(checkout, filter="data")
    return checkout


def run_once(checkout: Path, args, out: Path) -> dict:
    """One ``run.py --workload`` in ``checkout``; its last stdout line
    is the run's JSON result (declared metrics, ``correct``,
    ``attempted``, ``failed``)."""
    child = subprocess.run(
        [sys.executable, str(RUNNER), "--workload", args.workload,
         "--seed", str(args.seed), "--trace", str(args.trace), "--out", str(out)],
        cwd=checkout, stdout=subprocess.PIPE, text=True,
    )
    lines = child.stdout.strip().splitlines()
    if not lines:
        raise SystemExit("{}: run printed nothing (exit {})".format(
            checkout, child.returncode))
    return json.loads(lines[-1])


def better_directions(checkout: Path) -> Dict[str, str]:
    """Metric name -> ``"higher"`` / ``"lower"``, from the checkout's
    ``BENCHMARK.json``."""
    spec = json.loads((checkout / "BENCHMARK.json").read_text())
    return {
        metric["name"]: metric["better"]
        for key in ("end_to_end", "per_layer")
        for metric in spec.get(key, ())
    }


def quartiles(values: List[float]):
    """``(q1, median, q3)``, inclusive method; one value is all three."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize(parent: List[dict], change: List[dict], better) -> List[dict]:
    """One row per metric over pairs ``(parent[i], change[i])``."""
    rows = []
    for name in parent[0]["metrics"]:
        old = [run["metrics"][name]["value"] for run in parent]
        new = [run["metrics"][name]["value"] for run in change]
        direction = better.get(name, "lower")
        sign = 1.0 if direction == "higher" else -1.0
        wins = sum(1 for a, b in zip(old, new) if sign * (b - a) > 0)
        p_q1, p_med, p_q3 = quartiles(old)
        c_q1, c_med, c_q3 = quartiles(new)
        rows.append({
            "metric": name,
            "better": direction,
            "parent": (p_q1, p_med, p_q3),
            "change": (c_q1, c_med, c_q3),
            "ratio": c_med / p_med if p_med else float("nan"),
            "wins": wins,
            "pairs": len(old),
            "claim": (
                10 * wins >= 9 * len(old)
                and sign * (c_med - p_med) > p_q3 - p_q1
            ),
        })
    return rows


def _format(row: dict) -> str:
    p_q1, p_med, p_q3 = row["parent"]
    c_q1, c_med, c_q3 = row["change"]
    return ROW.format(
        row["metric"], p_med, "[{:.4f}-{:.4f}]".format(p_q1, p_q3),
        c_med, "[{:.4f}-{:.4f}]".format(c_q1, c_q3), row["ratio"],
        row["wins"], row["pairs"], "claim" if row["claim"] else "",
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--parent", required=True,
                        help="git revision to compare against")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", type=Path,
                        help="write every run's JSON line here")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    runs: Dict[str, List[dict]] = {"parent": [], "change": []}
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as workdir:
        workdir = Path(workdir)
        checkouts = {
            "parent": extract(args.parent, workdir),
            "change": REPO_ROOT,
        }
        for index in range(args.pairs):
            order = ("parent", "change") if index % 2 == 0 else (
                "change", "parent")
            for side in order:
                out = workdir / "out_{}".format(side)
                runs[side].append(run_once(checkouts[side], args, out))
            print("pair {}/{} done ({} first)".format(
                index + 1, args.pairs, order[0]), file=sys.stderr)
        better = better_directions(checkouts["change"])

    rows = summarize(runs["parent"], runs["change"], better)
    print("{} seed {} trace {}: parent {} vs working tree, {} pairs"
          .format(args.workload, args.seed, args.trace, args.parent,
                  args.pairs))
    print("{:<30} {:>12} {:<25} {:>12} {:<25} {:>8} {}".format(
        "metric", "parent", "[q1-q3]", "change", "[q1-q3]", "ratio", "won"))
    for row in rows:
        print(_format(row))
    for side in ("parent", "change"):
        print("{}: correct {}/{}, failed {} of {} operations".format(
            side, sum(run["correct"] for run in runs[side]),
            len(runs[side]), sum(run["failed"] for run in runs[side]),
            sum(run["attempted"] for run in runs[side])))
    if args.record is not None:
        args.record.write_text(json.dumps(
            {"workload": args.workload, "seed": args.seed,
             "trace": args.trace,
             "parent": args.parent, "runs": runs,
             "summary": rows}, indent=2) + "\n")
    correct = all(run["correct"] for side in runs.values() for run in side)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
