"""Batched evaluation with EngineSession: dedup, plan reuse, parallelism.

Builds a seeded mixed workload (all four structural regimes of the paper,
with repeated and variable-renamed queries — the shape of real serving
traffic), answers it through one `EngineSession.answer_many` call, and
contrasts the session counters and wall-clock with a loop of cold per-query
`EngineSession().answer` calls.

Run:  PYTHONPATH=src python examples/batch_sessions.py
"""

import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from repro.cq import workloads
from repro.engine import EngineSession


def main() -> None:
    queries, database = workloads.mixed_batch(seed=42, copies=4, distinct=20)
    print(f"workload: {len(queries)} queries over {database}")

    session = EngineSession()
    start = time.perf_counter()
    results = session.answer_many(queries, database, parallel=4)
    batch_seconds = time.perf_counter() - start

    start = time.perf_counter()
    for query in queries:
        EngineSession().answer(query, database)  # cold session per call: no reuse
    loop_seconds = time.perf_counter() - start

    stats = session.stats()
    evaluated = len(queries) - stats["dedup_hits"]
    print(f"\nbatch:      {batch_seconds:.3f}s  (one session, parallel=4)")
    print(f"cold loop:  {loop_seconds:.3f}s  (fresh session per query)")
    print(f"speedup:    {loop_seconds / batch_seconds:.1f}x")
    print(f"\ndedup:      {stats['dedup_hits']} of {len(queries)} queries were "
          f"repeats of {evaluated} distinct classes")
    print(f"plan cache: {stats['plan_cache']['hits']} hits / "
          f"{stats['plan_cache']['misses']} misses")
    print(f"analysis:   {stats['analysis_cache']['hits']} hits / "
          f"{stats['analysis_cache']['misses']} misses")

    by_strategy: dict = {}
    for result in results:
        by_strategy[result.strategy] = by_strategy.get(result.strategy, 0) + 1
    print("\nstrategies dispatched:")
    for strategy, count in sorted(by_strategy.items(), key=lambda kv: -kv[1]):
        print(f"  {strategy:<22} {count}")

    satisfiable = sum(1 for result in results if result.rows)
    print(f"\n{satisfiable}/{len(results)} queries satisfiable")


if __name__ == "__main__":
    main()
