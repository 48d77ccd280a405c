PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: test differential bench bench-baseline profile

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

# cProfile one engine-benchmark family (FAMILY=<name>, or FAMILY="<a> <b>"
# for several): the family's points, then the 40 functions with the largest
# cumulative time.  Never writes the baseline.  Only the run is profiled:
# under `python -m cProfile` the imports (SciPy's alone, 1.6 s) fill the
# top rows.  An unknown name exits 2 and lists the valid ones.
PROFILE_FAMILY = import cProfile, pstats, sys; sys.path.insert(0, "benchmarks"); \
	import bench_engine_scaling as bench; profile = cProfile.Profile(); \
	profile.runcall(bench.main, sys.argv[1:]); \
	pstats.Stats(profile).sort_stats("cumulative").print_stats(40)

profile:
	$(if $(FAMILY),,$(error usage: make profile FAMILY=<name>))
	$(PYTHON) -c '$(PROFILE_FAMILY)' $(addprefix --family ,$(FAMILY))
