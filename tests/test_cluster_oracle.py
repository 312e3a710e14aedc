"""The cluster differential oracle — the tentpole acceptance gate.

A real ``--workers 2`` cluster server is driven through >= 500
deterministic operations while one shard is SIGKILLed mid-load, then
the identical timeline is replayed through the sequential epoch
reference.  Zero divergences are required — decisions, counters and
the final link-state fingerprint.  The tracked copy of the comparison,
``benchmarks/results/cluster_oracle.json``, is written only by the
explicit ``repro cluster --out`` command; the tests archive to
``tmp_path``.
"""

import json

from repro.cluster import run_cluster_oracle


class TestClusterOracle:
    def test_kill_recovery_run_has_zero_divergences(self, tmp_path):
        out = tmp_path / "cluster_oracle.json"
        result = run_cluster_oracle(
            workers=2,
            scheme="D-LSR",
            rows=6, cols=6, capacity=8.0,
            arrival_rate=40.0, duration=15.0, seed=7,
            kill_shard=True,
            out_path=str(out),
        )
        # run_cluster_oracle raises ClusterOracleDivergence on any
        # mismatch; these assertions pin the campaign's shape.
        assert result["divergences"] == 0
        assert result["decisions_identical"]
        assert result["counters_match"]
        assert result["fingerprint_match"]
        assert result["ops"] >= 500
        assert result["admits"] >= 300
        assert 0.0 < result["acceptance_ratio"] < 1.0  # real contention
        assert result["protocol_errors"] == {}
        assert result["kill"]["pid"] is not None
        assert result["kill"]["worker_restarts"] >= 1
        archived = json.loads(out.read_text())
        assert archived["divergences"] == 0
        assert archived["ops"] == result["ops"]
        assert len(archived["per_shard"]) == 2
        # The archive must not change from run to run: no process ids.
        assert "pid" not in archived["kill"]
        assert all(
            "pid" not in shard and "pid" not in shard["final_report"]
            for shard in archived["per_shard"]
        )

    def test_no_kill_run_matches_too(self, tmp_path):
        result = run_cluster_oracle(
            workers=2,
            scheme="P-LSR",
            rows=4, cols=4, capacity=6.0,
            arrival_rate=20.0, duration=5.0, seed=3,
            kill_shard=False,
            out_path=str(tmp_path / "oracle.json"),
        )
        assert result["divergences"] == 0
        assert result["kill"]["worker_restarts"] == 0
