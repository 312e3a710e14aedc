import json

from compare import compare_sets, worsening
from run import load_spec


def test_worsening_follows_the_metrics_direction():
    assert worsening(100.0, 110.0, "lower") == 0.1
    assert worsening(100.0, 90.0, "lower") == -0.1
    assert worsening(100.0, 90.0, "higher") == 0.1
    assert worsening(0.0, 0.0, "lower") == 0.0


def _result_set(directory, spec, scale=1.0, failed_share=0.0):
    workloads = {}
    for workload in spec["workloads"]:
        workloads[workload["name"]] = {
            "end_to_end": {
                m["name"]: 10.0 * (scale if m["better"] == "lower"
                                   else 1.0 / scale)
                for m in spec["end_to_end"]},
            "per_layer": {m["name"]: 1.0 for m in spec["per_layer"]},
            "failed_share": failed_share,
        }
    directory.mkdir()
    (directory / "result.json").write_text(
        json.dumps({"workloads": workloads}))
    return directory


def test_compare_passes_within_bounds_and_fails_beyond(tmp_path, capsys):
    spec = load_spec()
    base = _result_set(tmp_path / "a", spec)
    tightest = min(m["bound"] for m in spec["end_to_end"])
    widest = max(m["bound"] for m in spec["end_to_end"])
    close = _result_set(tmp_path / "b", spec, scale=1.0 + tightest / 2)
    worse = _result_set(tmp_path / "c", spec, scale=1.0 + widest * 1.5)
    assert compare_sets(base, close, spec) == 0
    assert compare_sets(base, worse, spec) == 1
    assert "REGRESSION" in capsys.readouterr().out
    # Better is never a regression.
    assert compare_sets(worse, base, spec) == 0


def test_compare_fails_when_failed_share_rises(tmp_path):
    spec = load_spec()
    base = _result_set(tmp_path / "a", spec)
    failing = _result_set(tmp_path / "b", spec, failed_share=0.001)
    assert compare_sets(base, failing, spec) == 1
