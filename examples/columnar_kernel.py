"""The columnar kernel side by side with the tuple-set kernel.

The decomposition strategies (direct-yannakakis, ghd-guided) dispatch to a
`ColumnarBackend`: relations become parallel arrays of interned integer ids,
joins run as vectorized hash probes in id space, and values decode back
exactly once at the result boundary.  This demo evaluates the same queries
through both kernels — the engine's columnar path and the tuple-set
reference evaluator of `repro.cq.decomposition_eval`, on the same
decomposition — verifies the answers are identical, and prints
per-strategy timings plus the session's columnar view-cache counters.

Run:  PYTHONPATH=src python examples/columnar_kernel.py
"""

import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from repro.cq import generators as cqgen
from repro.cq.decomposition_eval import decomposition_enumerate_answers
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
        database = cqgen.random_database(query, 20, 2500, seed=seed)
        plan = session.plan(query)

        columnar, columnar_s = timed(lambda: session.answer(query, database, plan=plan))
        tupleset, tupleset_s = timed(
            lambda: decomposition_enumerate_answers(plan.query, database, plan.decomposition)
        )

        assert columnar.rows == tupleset, "kernels disagree!"
        print(f"{label}  [{plan.strategy}]")
        print(f"  columnar:  {columnar_s * 1000:8.1f} ms   ({len(columnar.rows)} answers)")
        print(f"  tuple-set: {tupleset_s * 1000:8.1f} ms   (identical answers)")
        print(f"  speedup:   {tupleset_s / columnar_s:8.1f} x")

    stats = session.stats()["columnar_view_cache"]
    print(
        f"\nview cache: {stats['views']} views over {stats['databases']} database(s), "
        f"{stats['dictionary_size']} interned values "
        f"({stats['hits']} hits / {stats['misses']} misses)"
    )


if __name__ == "__main__":
    main()
