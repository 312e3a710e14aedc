# Convenience targets for the DSN 2001 reproduction.

.PHONY: install test bench bench-smoke bench-pairs campaign campaign-sharded campaign-paper chaos-quick chaos-regional serve-demo examples docs-check clean

install:
	pip install -e '.[test]'

test:
	pytest tests/

# The paper's claims (Figures 4-5, saturation, dedicated-backup cost,
# routing overhead, ablations) and the performance gates; the only skip
# is the 4-worker campaign gate on hosts with fewer than 4 CPUs.
bench:
	pytest -rs benchmarks/test_paper.py benchmarks/test_gates.py

# The end-to-end benchmark (benchmarks/e2e) at 1/20 size, then the
# harness's own tests; neither is part of tier-1.
bench-smoke:
	python3 benchmarks/e2e/run.py --smoke
	python -m pytest benchmarks/e2e/tests -q

# Alternating parent/change pairs of one e2e workload, e.g.
#   make bench-pairs PARENT=HEAD~1 WORKLOAD=serve-wax500-serial
# (medians, quartiles and wins per metric; see docs/performance.md).
bench-pairs:
	python3 tools/bench_pairs.py --parent $(PARENT) --workload $(WORKLOAD) \
		$(if $(PAIRS),--pairs $(PAIRS)) $(if $(SEED),--seed $(SEED))

campaign:
	python -m repro.experiments.run_all --scale quick

campaign-sharded:
	python -m repro campaign run --scale quick --jobs 4 --dir out/campaign_quick

campaign-paper:
	python -m repro.experiments.run_all --scale paper

chaos-quick:
	python -m repro chaos --rows 6 --cols 6 --rate 1.5 --duration 120 \
		--intensity 4 --seed 7 --verify --trace-dir out/chaos_trace

# Correlated-failure acceptance campaign: seeded conduit cuts on the
# 16x16 mesh with SRLG-aware spare sizing; writes the ChaosReport
# (with its srlg/P_act-bk^(g) section) to out/chaos_regional.json.
chaos-regional:
	python -c "from repro.faults import FaultPlan; import pathlib; \
		pathlib.Path('out').mkdir(exist_ok=True); \
		FaultPlan.conduit_cut(rate=0.02, down_min=10, down_max=40).save('out/conduit_cut_plan.json')"
	python -m repro chaos --rows 16 --cols 16 --rate 2.0 --duration 600 \
		--seed 7 --srlg conduits --plan out/conduit_cut_plan.json \
		--verify --log none --report out/chaos_regional.json

# End-to-end control-plane tour: serve an example topology, replay a
# seeded workload through the load generator, verify decisions against
# a sequential twin, drain gracefully.
serve-demo:
	python examples/serve_loadtest.py

examples:
	for ex in examples/*.py; do echo "== $$ex"; python $$ex > /dev/null || exit 1; done

# The CI docs job: public-API docstring audit plus resolution of every
# code reference / relative link in README, EXPERIMENTS and docs/.
# The performance handbook is a hard dependency: the link checker
# scans docs/*.md, but a deleted file would silently shrink its scope.
docs-check: docs/performance.md
	python tools/check_docstrings.py
	python tools/check_doc_links.py

clean:
	rm -rf .pytest_cache
	find . -name __pycache__ -type d -exec rm -rf {} +
