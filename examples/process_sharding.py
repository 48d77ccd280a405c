"""Sharded evaluation across the two execution runtimes: inline, process.

Answers a hub-cycle (wheel) workload — every atom carries the hub variable,
so all relations hash-partition on it and the shards are answer-disjoint —
at 4 shards through each registered execution runtime, and contrasts the
steady-state wall-clock with the unsharded single-shard path.

What to look for in the output:

* the unsharded path re-scans and re-indexes the stored tuples on every
  call; the sharded paths execute against *resident* pieces (the session
  partition cache in-process, the workers' resident-shard caches for the
  process runtime), so after the first call they skip that work entirely;
* the process runtime reports worker *pids* — the evaluation genuinely
  left the Python process, which is what makes shard execution GIL-free
  and lets it scale with cores (on one or two cores inline is often as
  fast: docs/PERFORMANCE.md has the measured decision table);
* `EvalResult.timings["runtime"]` and `session.stats()` record where every
  task ran.

Run:  PYTHONPATH=src python examples/process_sharding.py
"""

import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from repro.cq import generators as cqgen
from repro.engine import EngineSession, ProcessRuntime

SHARDS = 4
REPEATS = 3


def best_of(call) -> float:
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        call()
        best = min(best, time.perf_counter() - start)
    return best


def main() -> None:
    query = cqgen.hub_cycle_query(4)
    database = cqgen.random_database(query, 40, 3000, seed=97)
    session = EngineSession()
    plan = session.plan(query)
    print(f"query: {query}")
    print(f"database: {database}")
    print(f"plan: {plan.strategy} (width {plan.width})\n")

    single = best_of(lambda: session.answer(query, database, plan=plan))
    print(f"single shard      {single * 1000:7.1f} ms   (the path to beat)")

    process_runtime = ProcessRuntime()
    runtimes = [("inline", "inline"), ("process", process_runtime)]
    try:
        for label, runtime in runtimes:
            call = lambda: session.answer(  # noqa: E731
                query, database, plan=plan, shards=SHARDS, runtime=runtime
            )
            call()  # warm: partition once, ship shards, build resident views
            seconds = best_of(call)
            result = call()
            workers = ", ".join(result.runtime["workers"])
            verdict = f"{single / seconds:4.2f}x vs single shard"
            print(
                f"{label:<8} x{SHARDS} shards {seconds * 1000:7.1f} ms   "
                f"({verdict}; workers: {workers})"
            )
        stats = session.stats()
        print(f"\nsharding ladder:   {stats['sharding']['by_mode']}")
        print(f"tasks dispatched:  {stats['runtime']['tasks_dispatched']} "
              f"across {stats['runtime']['calls_by_runtime']}")
        print(f"partition cache:   {stats['partition_cache']['hits']} hits / "
              f"{stats['partition_cache']['misses']} misses")
        rt = process_runtime.stats()
        print(f"process runtime:   {rt}")
        print(
            f"shipping ledger:   {rt['shipments']} shipments "
            f"({rt['shipment_bytes']} wire bytes) for "
            f"{rt['tasks_dispatched']} tasks — "
            f"{rt['tasks_owner_routed']} owner-routed, "
            f"residency {rt['resident_by_worker']}"
        )
    finally:
        process_runtime.close()


if __name__ == "__main__":
    main()
