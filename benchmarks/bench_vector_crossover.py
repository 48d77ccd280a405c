"""Where the columnar kernel's NumPy path starts to beat its dict path.

Times each operator of :class:`repro.cq.columnar.ColumnarRelation` with
both execution paths forced (by moving ``_VECTOR_MIN_ROWS`` to 0 or out of
reach) on random relations of n rows over ``(x, y, z)`` and ``(y, z, w)``,
which share two columns.  Two regimes:

* **cold** — every call sees fresh relation objects over the same arrays,
  so nothing is memoized (intermediate results inside one query);
* **warm** — the same relation objects every call, so key indexes, key
  sets and sort orders are memoized (resident atom views).

A third table times cross products (no shared column) of a 40-row probe
with m rows, by output size 40·m: a cross product has no key to probe, so
the kernel sizes it by the pairs it gathers rather than by its probe side.

Prints the median microseconds per call and the faster path.  The kernel's
threshold is the smallest size from which the NumPy path wins every row of
the tables.  Run with::

    PYTHONPATH=src python benchmarks/bench_vector_crossover.py
"""

from __future__ import annotations

import random
import time

from repro.cq import columnar
from repro.cq.columnar import ColumnarRelation, ValueInterner, columnar_count_join_tree
from repro.cq.relational import NamedRelation
from repro.cq.yannakakis import JoinTree

SIZES = (64, 128, 256, 512, 1024, 2048, 4096)
#: Build-side rows of the cross-product table (probe side: 40 rows).
CROSS_PROBE = 40
CROSS_SIZES = (2, 4, 8, 13, 26, 52, 103, 1248)
REPEATS = 15


def _relation(columns, rows, domain, rng, interner) -> ColumnarRelation:
    found: set = set()
    while len(found) < rows:
        found.add(tuple(rng.randrange(domain) for _ in columns))
    return ColumnarRelation.from_named(NamedRelation(columns, found), interner)


def _median_us(call) -> float:
    samples = []
    for _ in range(REPEATS):
        started = time.perf_counter()
        call()
        samples.append(time.perf_counter() - started)
    samples.sort()
    return samples[len(samples) // 2] * 1e6


def _operators(left, right, warm: bool) -> dict:
    if warm:
        def fresh(relation):
            return relation
    else:
        def fresh(relation):  # same arrays, empty memos
            return ColumnarRelation._trusted(
                relation.columns, relation.interner, relation._data, len(relation)
            )
    return {
        "join": lambda: fresh(left).natural_join(fresh(right)),
        "semijoin": lambda: fresh(left).semijoin(fresh(right)),
        "project": lambda: fresh(left).project(("x", "y")),
        "count_dp": lambda: columnar_count_join_tree(
            JoinTree({0: fresh(left), 1: fresh(right)}, {0: None, 1: 0})
        ),
    }


def _timed_paths(call) -> tuple:
    """Median microseconds of ``call`` on the dict path, then NumPy."""
    timings = []
    for forced in (10**9, 0):
        columnar._VECTOR_MIN_ROWS = forced
        call()
        timings.append(_median_us(call))
    return tuple(timings)


def _cross_products() -> None:
    print(f"cross products, {CROSS_PROBE}-row probe (cold / warm memos)")
    print(f"{'pairs':>6} {'dict_us':>8} {'numpy_us':>9}  faster")
    for rows in CROSS_SIZES:
        rng = random.Random(rows)
        interner = ValueInterner()
        left = _relation(("a",), CROSS_PROBE, 4 * CROSS_PROBE, rng, interner)
        right = _relation(("b", "c"), rows, 4 * rows, rng, interner)
        for warm in (False, True):
            join = _operators(left, right, warm)["join"]
            dict_us, numpy_us = _timed_paths(join)
            faster = "numpy" if numpy_us < dict_us else "dict"
            print(
                f"{CROSS_PROBE * rows:>6} {dict_us:>8.0f} {numpy_us:>9.0f}  "
                f"{faster} ({'warm' if warm else 'cold'})"
            )


def main() -> None:
    threshold = columnar._VECTOR_MIN_ROWS
    try:
        for warm in (False, True):
            print("warm memos" if warm else "cold memos")
            print(f"{'rows':>6} {'operator':<9} {'dict_us':>8} {'numpy_us':>9}  faster")
            for rows in SIZES:
                rng = random.Random(rows)
                domain = max(8, int((4 * rows) ** 0.5))
                interner = ValueInterner()
                left = _relation(("x", "y", "z"), rows, domain, rng, interner)
                right = _relation(("y", "z", "w"), rows, domain, rng, interner)
                for name, call in _operators(left, right, warm).items():
                    if warm and name == "project":
                        continue  # a warm projection is a memo hit
                    dict_us, numpy_us = _timed_paths(call)
                    faster = "numpy" if numpy_us < dict_us else "dict"
                    print(
                        f"{rows:>6} {name:<9} {dict_us:>8.0f} "
                        f"{numpy_us:>9.0f}  {faster}"
                    )
        _cross_products()
    finally:
        columnar._VECTOR_MIN_ROWS = threshold


if __name__ == "__main__":
    main()
