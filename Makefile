# Convenience targets for the vRead reproduction.

.PHONY: install test lint analyze chaos bench bench-quick bench-pr5 bench-pr5-quick load-smoke load-bench storage-smoke storage-bench churn-smoke churn-bench profile bench-tables report paper-report quick-report demo clean

install:
	python setup.py develop

test:
	pytest tests/

lint:
	PYTHONPATH=src python -m repro.analysis src/repro

# Whole-program analysis (per-module rules + cross-module taint/flow),
# gated on the committed baseline, with the incremental cache warm.
analyze:
	PYTHONPATH=src python -m repro.analysis src/repro \
		--baseline .simlint-baseline.json \
		--cache .simlint-cache.json --stats

chaos:
	PYTHONPATH=src python -m pytest tests/faults -q
	PYTHONPATH=src python examples/failure_drill.py

bench:
	python benchmarks/perf/bench_pr3.py --out BENCH_pr3.json

bench-quick:
	python benchmarks/perf/bench_pr3.py --quick --out BENCH_pr3.json

bench-pr5:
	PYTHONPATH=src python benchmarks/perf/bench_pr5.py --out BENCH_pr5.json

bench-pr5-quick:
	PYTHONPATH=src python benchmarks/perf/bench_pr5.py --quick --out BENCH_pr5.json

# Open-loop load harness: RSS-flatness + jobs-N determinism gates
# (see docs/load.md); load-smoke is the CI profile.
load-smoke:
	PYTHONPATH=src python benchmarks/perf/bench_pr7.py --quick --out BENCH_pr7.json
	PYTHONPATH=src python -m pytest tests/load tests/metrics/test_sinks.py -q

load-bench:
	PYTHONPATH=src python benchmarks/perf/bench_pr7.py --out BENCH_pr7.json

# Tiered-storage harness: device-tier determinism, hot-placement +
# stream-digest reproducibility, flat-RSS appends (see docs/storage.md);
# storage-smoke is the CI profile.
storage-smoke:
	PYTHONPATH=src python benchmarks/perf/bench_pr8.py --quick --out BENCH_pr8.json
	PYTHONPATH=src python -m pytest tests/storage tests/cluster/test_storage_tiers.py tests/properties/test_stream_properties.py -q

storage-bench:
	PYTHONPATH=src python benchmarks/perf/bench_pr8.py --out BENCH_pr8.json

# Elastic-membership harness: churn-sweep jobs-N determinism, daemon
# crash -> re-probe -> recovery gates, churn-free neutrality (see
# docs/elasticity.md); churn-smoke is the CI profile.
churn-smoke:
	PYTHONPATH=src python benchmarks/perf/bench_pr9.py --quick --out BENCH_pr9.json
	PYTHONPATH=src python -m pytest tests/cluster/test_membership.py tests/load/test_autoscale.py tests/experiments/test_scale_churn.py -q

churn-bench:
	PYTHONPATH=src python benchmarks/perf/bench_pr9.py --out BENCH_pr9.json

# Usage: make profile [EXP=fig11] [PROFILE_FLAGS="--quick --memory"]
EXP ?= fig11
profile:
	PYTHONPATH=src python -m repro profile $(EXP) $(PROFILE_FLAGS)

bench-tables:
	pytest benchmarks/ --benchmark-only

report:
	python -m repro.experiments.run_all --ablations

paper-report:
	python -m repro.experiments.run_all --paper

quick-report:
	python -m repro.experiments.run_all --quick

demo:
	python -m repro demo

clean:
	find . -name __pycache__ -type d -exec rm -rf {} + 2>/dev/null; true
	rm -rf .pytest_cache .hypothesis src/repro.egg-info
