"""End-to-end benchmark of the DRTP control plane.

One workload, as the benchmark driver calls it (the last line of
standard output is one JSON object)::

    python3 benchmarks/e2e/run.py --workload serve-wax500-serial \\
        --seed 7 --seconds 10 --trace 0

Every workload, untraced for the end-to-end metrics and traced for the
per-layer ledger, with results under ``--out``::

    python3 benchmarks/e2e/run.py --seed 7 --out out/e2e/set1

``--compare A B`` diffs two such result sets against the bounds in
``BENCHMARK.json``; ``--smoke`` runs everything at 1/20 size.  See
``README.md`` beside this file for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from common import (  # noqa: E402
    REPO_ROOT,
    host_record,
    pin_to_one_cpu,
    refuse_engine_gates,
    require_source_tree,
)

SPEC_PATH = REPO_ROOT / "BENCHMARK.json"
EXPECTED_PATH = HERE / "expected.json"
DEFAULT_OUT = Path("out") / "e2e"
SMOKE_SCALE = 1.0 / 20.0


def load_spec() -> dict:
    return json.loads(SPEC_PATH.read_text())


def end_to_end(run) -> dict:
    """The client-visible metrics of one untraced run, host-normalised:
    times are divided by, and rates multiplied by, the host speed probed
    during the measured window (``common.HostProbe``).  A percentile
    that fewer than ten samples lie beyond is a defect of the run, not a
    measurement: it is reported and fails a full-size run."""
    from stats import median, percentile, supported

    def latency_ms(op, q):
        samples = run.sorted_ms(op)
        if not supported(len(samples), q):
            run.missing.append("{} p{:g}: only {} samples".format(
                op, q, len(samples)))
        return percentile(samples, q) if samples else 0.0

    speed = run.host_speed
    return {
        "setup_s": median(run.setup_s),
        "ops_per_s": run.ops / run.wall_s * speed,
        "admissions_per_s": run.admits / run.wall_s * speed,
        "admit_p50_ms": latency_ms("admit", 50.0) / speed,
        "admit_p90_ms": latency_ms("admit", 90.0) / speed,
        "release_p50_ms": latency_ms("release", 50.0) / speed,
        "peak_rss_mb": run.peak_rss_bytes / 1e6,
    }


def _execute(inputs, workdir, *, fraction, setup_reps, trace_path=None,
             corrupt_reference=False):
    """One execution of a workload over ``fraction`` of its measured
    ops; traced, with the spans written to ``trace_path``, when one is
    given."""
    from inproc import run_cell, run_churn
    from serve import run_serve
    from spans import CELL, CHURN

    name = inputs.workload.name
    if name == CELL:
        return run_cell(inputs, fraction=fraction, setup_reps=setup_reps,
                        trace_path=trace_path)
    ops = (inputs.measured_ops if fraction >= 1.0 else inputs.trace_ops)
    if name == CHURN:
        return run_churn(inputs, ops=ops, setup_reps=setup_reps,
                         trace_path=trace_path)
    return run_serve(inputs, workdir, ops=ops, setup_reps=setup_reps,
                     trace_path=trace_path,
                     corrupt_reference=corrupt_reference)


def _check_expected(name, seed, seconds, trace, values, errors) -> int:
    """Outputs pinned in ``expected.json`` for (workload, seed,
    seconds, trace) must repeat to the last digit."""
    pinned = json.loads(EXPECTED_PATH.read_text()).get(name, {}).get(
        "seed={},seconds={:g},trace={}".format(seed, seconds, trace))
    failed = 0
    for key, want in (pinned or {}).items():
        if values.get(key) != want:
            failed += 1
            errors.append("{} = {!r}, expected.json pins {!r}".format(
                key, values.get(key), want))
    return failed


def run_workload(name, seed, seconds, trace, out, *, smoke=False,
                 corrupt_reference=False) -> dict:
    """Run one workload untraced (``trace=0``) or as a trace pair
    (``trace=1``); returns the driver's result object plus detail, and
    leaves the same in ``out/run_<workload>_trace<n>.json``.

    ``smoke`` shrinks measured ops and warm-up to 1/20, sets up once,
    and tolerates what only a too-small run causes: a declared span
    without a call, a thin percentile."""
    from ledger import per_layer
    from spans import CELL
    from workloads import NETWORKS, TRACE_FRACTION, WORKLOADS, generate

    workload = WORKLOADS[name]
    if smoke:
        seconds *= SMOKE_SCALE
        workload = dataclasses.replace(
            workload, setup_reps=1,
            warmup_ops=int(workload.warmup_ops * SMOKE_SCALE))
    inputs = generate(workload, seed, seconds, NETWORKS[name]())
    out.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=out))
    try:
        if not trace:
            run = _execute(inputs, workdir, fraction=1.0,
                           setup_reps=workload.setup_reps,
                           corrupt_reference=corrupt_reference)
            metrics = end_to_end(run)
            runs = [run]
        else:
            untraced = _execute(inputs, workdir, fraction=TRACE_FRACTION,
                                setup_reps=1,
                                corrupt_reference=corrupt_reference)
            run = _execute(
                inputs, workdir, fraction=TRACE_FRACTION, setup_reps=1,
                trace_path=out / "trace_{}.ndjson".format(name))
            if (untraced.decisions != run.decisions
                    or untraced.ops != run.ops):
                run.failed += 1
                run.errors.append("traced and untraced runs disagree")
            metrics = per_layer(untraced, run, host_record(),
                                inputs.build_s, name == CELL)
            runs = [untraced, run]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    # What the program decided, as opposed to how fast: repeats exactly
    # for the same (seed, seconds, trace), and expected.json pins some.
    outputs = {
        key: value for key, value in sorted(run.counters.items())
        if key.startswith("experiments.")
        or key in ("core.requests", "core.accepted", "core.rejected")
    }
    errors = [e for r in runs for e in r.errors]
    failed = sum(r.failed for r in runs)
    for note in (m for r in runs for m in r.missing):
        errors.append(("(tolerated in a smoke) " if smoke else "") + note)
        failed += int(not smoke)
    failed += _check_expected(name, seed, seconds, trace, outputs, errors)
    result = {
        "correct": failed == 0,
        "attempted": sum(r.attempted for r in runs),
        "failed": failed,
        "metrics": metrics,
        "errors": errors,
        "input_digest": inputs.digest,
        "samples": {op: len(v) for op, v in run.latencies_ns.items()},
        "host_speed": run.host_speed,
        "outputs": outputs,
    }
    _run_file(out, name, trace).write_text(
        json.dumps(result, indent=2, sort_keys=True) + "\n")
    return result


def _run_file(out, name, trace) -> Path:
    return out / "run_{}_trace{}.json".format(name, trace)


def _driver_line(result, declared) -> str:
    """The one JSON object the driver reads: exactly the declared
    metrics, each with its unit."""
    metrics = {
        m["name"]: {"value": result["metrics"].get(m["name"], 0.0),
                    "unit": m["unit"]}
        for m in declared
    }
    return json.dumps({
        "correct": result["correct"], "attempted": result["attempted"],
        "failed": result["failed"], "metrics": metrics,
    })


def _print_metrics(title, result, declared) -> None:
    print("== {}  (correct={}, attempted={}, failed={}, samples={}, "
          "host_speed={:.4f})".format(
              title, result["correct"], result["attempted"],
              result["failed"], result["samples"], result["host_speed"]))
    for metric in declared:
        value = result["metrics"].get(metric["name"], 0.0)
        print("  {:<34} {:>16.6f} {}".format(
            metric["name"], value, metric["unit"]))
    print("  outputs: " + json.dumps(result["outputs"]))
    for error in result["errors"]:
        print("  NOTE: " + error)


def run_set(out, seed, seconds, passthrough) -> int:
    """Every workload, untraced then traced, each in a process of its
    own — exactly as the driver runs them, so peak memory and lazy
    set-up are one workload's, never the previous one's.  Merges the
    per-run files into ``result.json``."""
    spec = load_spec()
    record = {"seed": seed, "seconds": seconds, "host": host_record(),
              "workloads": {}}
    exit_code = 0
    for workload in spec["workloads"]:
        name = workload["name"]
        entry = {}
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            run_file = _run_file(out, name, trace)
            run_file.unlink(missing_ok=True)  # never read a stale one
            child = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name,
                 "--trace", str(trace), "--out", str(out)] + passthrough,
                stdout=subprocess.PIPE, text=True)
            lines = child.stdout.splitlines()
            print("\n".join(lines[:-1]))  # all but the driver's line
            if child.returncode != 0:
                exit_code = 1
            if not run_file.exists():
                print("  run died:", lines[-1:] or "no output")
                return 1
            result = json.loads(run_file.read_text())
            run_file.unlink()
            entry[key] = {m["name"]: result["metrics"].get(m["name"], 0.0)
                          for m in spec[key]}
            entry[key + "_run"] = {k: v for k, v in result.items()
                                   if k not in ("metrics", "input_digest")}
            entry["input_digest"] = result["input_digest"]
        runs = (entry["end_to_end_run"], entry["per_layer_run"])
        entry["failed_share"] = (
            sum(r["failed"] for r in runs)
            / sum(r["attempted"] for r in runs))
        print("  {:<34} {:>16.6f} ratio".format(
            "failed_share", entry["failed_share"]))
        record["workloads"][name] = entry
    (out / "result.json").write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n")
    print("wrote {}".format(out / "result.json"))
    return exit_code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", help="run this one workload and "
                        "print the driver's JSON line")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=None,
                        help="work per run, in build-host seconds "
                        "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT,
                        help="directory for results, traces and scratch "
                        "files (default: out/e2e)")
    parser.add_argument("--smoke", action="store_true",
                        help="every workload at 1/20 size, one set-up")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        type=Path, help="diff two result directories")
    parser.add_argument("--corrupt-reference", action="store_true",
                        help="flip one reference decision: the run must "
                        "then fail (proves the correctness gate can)")
    args = parser.parse_args(argv)

    if args.compare:
        from compare import compare_sets
        return compare_sets(args.compare[0], args.compare[1], load_spec())

    require_source_tree()
    refuse_engine_gates()
    spec = load_spec()
    seconds = args.seconds if args.seconds is not None else float(
        spec["run_seconds"])

    if args.workload is None:
        passthrough = ["--seed", str(args.seed), "--seconds", repr(seconds)]
        passthrough += ["--smoke"] * args.smoke
        passthrough += ["--corrupt-reference"] * args.corrupt_reference
        return run_set(args.out, args.seed, seconds, passthrough)

    if args.workload not in {w["name"] for w in spec["workloads"]}:
        parser.error("unknown workload {!r}".format(args.workload))
    pin_to_one_cpu()
    declared = spec["per_layer" if args.trace else "end_to_end"]
    result = run_workload(
        args.workload, args.seed, seconds, args.trace, args.out,
        smoke=args.smoke, corrupt_reference=args.corrupt_reference)
    _print_metrics(args.workload, result, declared)
    print(_driver_line(result, declared))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
