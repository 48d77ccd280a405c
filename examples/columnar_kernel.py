"""The columnar kernel side by side with the backtracking solver.

The decomposition strategies (direct-yannakakis, ghd-guided) dispatch to a
`ColumnarBackend`: relations become parallel arrays of interned integer ids,
joins run as vectorized hash probes in id space, and values decode back
exactly once at the result boundary.  This demo evaluates the same queries
through the engine's columnar path and through the generic backtracking
solver of `repro.cq.homomorphism`, which ignores the query's structure,
verifies the answers are identical, and prints both timings plus the
database's columnar view-cache counters.

Run:  PYTHONPATH=src python examples/columnar_kernel.py
"""

import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from repro.cq import generators as cqgen
from repro.cq.homomorphism import enumerate_answers
from repro.engine import EngineSession


def timed(fn):
    start = time.perf_counter()
    value = fn()
    return value, time.perf_counter() - start


def main() -> None:
    session = EngineSession()
    workloads = [
        ("acyclic chain", cqgen.chain_query(5).project(["x0", "x5"]), 38),
        ("cyclic wheel", cqgen.cycle_query(6).project(["x0", "x1"]), 39),
    ]

    for label, query, seed in workloads:
        # Small enough for the backtracking solver to finish in about a second.
        database = cqgen.random_database(query, 20, 120, seed=seed)
        plan = session.plan(query)

        columnar, columnar_s = timed(lambda: session.answer(query, database, plan=plan))
        backtracked, backtracking_s = timed(lambda: enumerate_answers(query, database))

        assert columnar.rows == backtracked, "evaluators disagree!"
        print(f"{label}  [{plan.strategy}]")
        print(f"  columnar:     {columnar_s * 1000:8.1f} ms   ({len(columnar.rows)} answers)")
        print(f"  backtracking: {backtracking_s * 1000:8.1f} ms   (identical answers)")
        print(f"  speedup:      {backtracking_s / columnar_s:8.1f} x")
        store = database.columnar_cache.info()
        print(
            f"  store:        {store['size']} views, {store['dictionary_size']} "
            f"interned values ({store['hits']} hits / {store['misses']} misses)"
        )


if __name__ == "__main__":
    main()
