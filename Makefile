PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: test differential bench bench-baseline

test:
	$(PYTHON) -m pytest -x -q

# The differential matrix on one seed (override with WORKLOAD_SEEDS=n): every
# strategy, forced plan, shard count, runtime, regime and database flavour,
# the append replay and the skewed regime against the naive solver, plus the
# cost-vs-static join-ordering guard — the two WORKLOAD_SEEDS-parametrised
# modules.  Then the service load run in --quick mode, which fails on any
# request error and leaves benchmarks/BENCH_service.json untouched.
differential:
	WORKLOAD_SEEDS=$(or $(WORKLOAD_SEEDS),0) $(PYTHON) -m pytest -q \
		tests/engine/test_differential.py \
		tests/engine/test_join_ordering_regression.py
	$(PYTHON) benchmarks/bench_service.py --quick

# Perf-regression gate: re-run the engine benchmarks and fail on >2x slowdown
# against benchmarks/BENCH_engine.json.
bench:
	$(PYTHON) -m pytest -q -m bench benchmarks/check_regression.py

# Refresh the recorded baseline (only after verifying a genuine speedup).
bench-baseline:
	$(PYTHON) benchmarks/bench_engine_scaling.py
