"""Scaling benchmark: production admissions/sec vs the naive reference.

Sustained-admission throughput on square meshes from 8x8 to 20x20,
measured twice per mesh over the identical seeded workload:

* **fast** — the production :class:`DRTPService` (incremental APLV
  deltas, dirty-set link tables, batch cost builds, array Dijkstra,
  batched commit);
* **naive** — :func:`make_reference_service`: same scheme and policies,
  but every APLV/CV read rebuilds from the raw backup registries, every
  link cost is a closure call and every search runs the dict-based
  reference Dijkstra.

The workload is admission-heavy on purpose: each accepted connection
registers its backup LSET on every spare link, so per-link registries
grow throughout the run and the naive rebuild-per-read cost grows with
them — exactly the asymptotic gap the fast path exists to close.

Results land in ``benchmarks/results/scaling.json`` (committed, so CI
keeps an auditable record).  The acceptance gate: **>= 3x admissions/sec
on the 16x16 mesh**.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/test_scaling.py -v

(``benchmarks/`` is outside the default ``testpaths``, so the tier-1
suite stays fast; CI invokes this file explicitly.)
"""

import json
import random
import time
from pathlib import Path

import pytest

from repro.core import DRTPService
from repro.experiments import make_scheme
from repro.testing import make_reference_service
from repro.topology import mesh_network

from _common import ArmTimer, check_paired_iterations

RESULTS_PATH = Path(__file__).parent / "results" / "scaling.json"

MESH_SIZES = (8, 12, 16, 20)

#: Admissions per mesh.  High enough that per-link backup registries
#: grow into the hundreds, where the naive rebuild-per-read cost
#: dominates; the fast path's deltas stay O(|LSET|) regardless.
NUM_REQUESTS = 900

#: Link capacity, in bw units.  Generous so the workload stays
#: admission-bound (every request accepted) rather than
#: rejection-bound — rejected requests register nothing and would
#: understate the registry pressure the benchmark is exercising.
CAPACITY = 32.0

SEED = 2026

SCHEME = "D-LSR"


def _workload(net, seed=SEED, num_requests=NUM_REQUESTS):
    rng = random.Random(seed)
    return [
        tuple(rng.sample(range(net.num_nodes), 2))
        for _ in range(num_requests)
    ]


def _time_admissions(service, pairs, timer):
    """Drive the seeded request stream into ``timer``; returns the
    arm's accepted count."""
    start = time.perf_counter_ns()
    for src, dst in pairs:
        service.request(src, dst, 1.0)
    timer.add(time.perf_counter_ns() - start, iterations=len(pairs))
    return service.counters.accepted


def measure_mesh(rows):
    """One mesh size: identical workload through fast and naive."""
    net = mesh_network(rows, rows, capacity=CAPACITY)
    pairs = _workload(net)

    fast = DRTPService(net, make_scheme(SCHEME))
    naive = make_reference_service(fast)

    fast_timer = ArmTimer("fast")
    naive_timer = ArmTimer("naive")
    naive_accepted = _time_admissions(naive, pairs, naive_timer)
    fast_accepted = _time_admissions(fast, pairs, fast_timer)

    # Identical decisions are a precondition for a fair throughput
    # comparison (and are separately enforced bit-for-bit by the
    # differential oracle suite); so are identical per-arm iteration
    # counts, which the artifact records.
    assert fast_accepted == naive_accepted
    check_paired_iterations(fast_timer, naive_timer)

    fast_elapsed = fast_timer.elapsed_sec
    naive_elapsed = naive_timer.elapsed_sec
    return {
        "mesh": "{0}x{0}".format(rows),
        "num_links": net.num_links,
        "requests": len(pairs),
        "accepted": fast_accepted,
        "arms": {
            timer.name: timer.report()
            for timer in (fast_timer, naive_timer)
        },
        "fast_admissions_per_sec": round(fast_accepted / fast_elapsed, 1),
        "naive_admissions_per_sec": round(naive_accepted / naive_elapsed, 1),
        "fast_elapsed_sec": round(fast_elapsed, 3),
        "naive_elapsed_sec": round(naive_elapsed, 3),
        "speedup": round(naive_elapsed / fast_elapsed, 2),
    }


@pytest.mark.slow
def test_scaling_curve():
    """Measure all meshes, record the JSON artifact, and gate on the
    16x16 acceptance bar (>= 3x admissions/sec vs naive rebuild)."""
    results = {
        "scheme": SCHEME,
        "capacity": CAPACITY,
        "requests_per_mesh": NUM_REQUESTS,
        "seed": SEED,
        "meshes": [measure_mesh(rows) for rows in MESH_SIZES],
    }

    RESULTS_PATH.parent.mkdir(parents=True, exist_ok=True)
    RESULTS_PATH.write_text(
        json.dumps(results, indent=2, sort_keys=True) + "\n"
    )

    by_mesh = {entry["mesh"]: entry for entry in results["meshes"]}
    assert by_mesh["16x16"]["speedup"] >= 3.0, (
        "fast path must beat the naive rebuild path by >= 3x on the "
        "16x16 mesh; measured {}x".format(by_mesh["16x16"]["speedup"])
    )
    # The gap must widen with scale: the naive path is superlinear in
    # registry size, the fast path is not.
    assert by_mesh["16x16"]["speedup"] > by_mesh["8x8"]["speedup"] * 0.8
