"""The harness as the driver and a builder run it (subprocesses)."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

RUN = str(Path(__file__).resolve().parents[1] / "run.py")


def _run(*args, env=None, cwd=None):
    return subprocess.run([sys.executable, RUN, *args], env=env, cwd=cwd,
                          capture_output=True, text=True, timeout=180)


def test_smoke_runs_every_workload_both_ways_in_under_30_s(tmp_path):
    started = time.monotonic()
    done = _run("--smoke", "--seed", "7", "--out", str(tmp_path / "smoke"))
    elapsed = time.monotonic() - started
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    assert elapsed < 30.0
    result = json.loads((tmp_path / "smoke" / "result.json").read_text())
    assert len(result["workloads"]) == 4
    assert all(entry["failed_share"] == 0.0
               for entry in result["workloads"].values())
    # Hygiene: nothing that changes from run to run for no reason.
    text = json.dumps(result)
    assert str(tmp_path) not in text and "pid" not in text
    assert set(result["host"]) == {"python", "numpy", "nproc",
                                   "calibration_s"}
    # Scratch files are gone; traces and the result stay.
    assert sorted(p.name for p in (tmp_path / "smoke").iterdir()) == [
        "result.json",
        "trace_faults-mesh16-churn.ndjson",
        "trace_paper-wax60-cell.ndjson",
        "trace_serve-mesh8-pipelined.ndjson",
        "trace_serve-wax500-serial.ndjson",
    ]


def test_driver_line_carries_exactly_the_declared_metrics(tmp_path):
    spec = json.loads(
        (Path(RUN).parents[2] / "BENCHMARK.json").read_text())
    for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
        done = _run("--workload", "faults-mesh16-churn", "--seed", "3",
                    "--seconds", "3", "--trace", trace,
                    "--out", str(tmp_path / "out"))
        assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
        line = json.loads(done.stdout.strip().splitlines()[-1])
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True and line["failed"] == 0
        assert line["attempted"] >= 1
        assert list(line["metrics"]) == [m["name"] for m in spec[key]]
        assert all(set(v) == {"value", "unit"}
                   for v in line["metrics"].values())


def test_a_corrupted_reference_fails_the_run(tmp_path):
    done = _run("--workload", "serve-mesh8-pipelined", "--seed", "3",
                "--seconds", "0.2", "--smoke", "--corrupt-reference",
                "--out", str(tmp_path / "out"))
    assert done.returncode == 1
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert line["correct"] is False and line["failed"] >= 1


def test_engine_gates_are_refused(tmp_path):
    env = dict(os.environ, REPRO_WARMSTART="0")
    done = _run("--smoke", "--out", str(tmp_path / "out"), env=env)
    assert done.returncode != 0
    assert "REPRO_WARMSTART" in done.stderr
    assert not (tmp_path / "out").exists()
