"""Where the columnar kernel's NumPy path starts to beat its dict path, and
where its dense-id branch starts to beat sorting.

Times each operator of :class:`repro.cq.columnar.ColumnarRelation` with
each execution path forced (by moving ``_VECTOR_MIN_ROWS`` to 0 or out of
reach, and ``_DENSE_FACTOR`` to 0 or out of reach) on random relations of
n rows over ``(x, y, z)`` and ``(y, z, w)``, which share two columns: the
dict path, the NumPy path with dense addressing off (every keyed operator
sorts) and on.  Projection has no dense branch.  Two regimes:

* **cold** — every call sees fresh relation objects over the same arrays,
  so nothing is memoized (intermediate results inside one query);
* **warm** — the same relation objects every call, so key indexes, key
  sets and sort orders are memoized (resident atom views).

A third table times cross products (no shared column) of a 40-row probe
with m rows, by output size 40·m: a cross product has no key to probe, so
the kernel sizes it by the pairs it gathers rather than by its probe side.

A fourth table sweeps the key domain: two relations of n rows (1k and 20k)
whose one key column draws from ``ratio * n`` ids, cold memos, sort vs
dense, for the count DP's child sums, the semijoin and the join (whose
cold build side is sorted either way: the dense join reads its build order
from the same memoized sort).  Both sides' rows count, so ratio r is a
table of r/2 slots per operand row; ``_DENSE_FACTOR`` is the largest such
table size at which every dense operator still wins.

A fifth table times sort-order maintenance on a resident view: after k
keys (below ``2**16``, like node ids) are appended to n, the next
snapshot's sort order either re-sorts all n + k keys or merges the k
appended ones into the previous snapshot's order (``searchsorted`` slots,
then ``np.insert``), as ``ColumnarRelation._sorted_keys`` does.

A sixth table times a bag tree's two forms on a 6-cycle (the
``cyclic_analytics`` shape: bags of three variables) over domains of d
values, whose relations hold each pair with probability 1/c, so c cells
per row: bag materialisation, the upward pass with the projection onto
``x0``, and the counting DP, warm atom views, with ``_VECTOR_MIN_ROWS`` at
0 for both forms.  The row form is a tree of :class:`ColumnarRelation`
bags (``_BAG_ARRAY_CELLS`` at 0), the array form one of
:class:`BagArray` bags (density test out of reach).  Each bag's array has
d**3 cells.  The last column names the faster form per task: an answer
(build + upward pass) and a count (build + DP).  ``_BAG_ARRAY_CELLS`` is
the largest size the table runs at every density, up to the 4 cells per
row the density test admits; past it the count's int64 weights (8 bytes
a cell) cost memory.

A seventh table sizes the semijoin's one-byte mask: two relations of n
rows (1k, 10k and 100k) whose one key column draws from c cells per
operand row (c · 2n ids, both sides' rows count), median µs per call of
the mask (``_DENSE_FACTOR`` out of reach), the probe into the build
side's sorted keys with the sort cold (fresh relations every call) and
memoised (the same build relation every call; ``_DENSE_FACTOR`` at 0
for both), and ``np.isin``.  It skips any mask over 64 MB and prints, per
row count, the smallest c at which another column beats the mask.  The
kernel masks up to 16 · ``_DENSE_FACTOR`` = 64 cells per row.

Prints the median microseconds per call and the fastest path.  The
kernel's threshold is the smallest size from which the NumPy path wins
every row of the tables.  Run with::

    PYTHONPATH=src python benchmarks/bench_vector_crossover.py
"""

from __future__ import annotations

import random
import time

import numpy as np

from repro.cq import columnar
from repro.cq import generators as cqgen
from repro.cq.columnar import (
    ColumnarRelation,
    ValueInterner,
    _BoundedMemo,
    build_columnar_bag_tree,
    columnar_count_join_tree,
)
from repro.cq.database import Database, Relation
from repro.cq.relational import NamedRelation
from repro.cq.yannakakis import JoinTree, yannakakis_full
from repro.engine import EngineSession

SIZES = (64, 128, 256, 512, 1024, 2048, 4096)
#: Build-side rows of the cross-product table (probe side: 40 rows).
CROSS_PROBE = 40
CROSS_SIZES = (2, 4, 8, 13, 26, 52, 103, 1248)
#: Rows per side and key-domain-to-rows ratios of the dense sweep.
SWEEP_ROWS = (1000, 20000)
SWEEP_RATIOS = (1, 2, 4, 8, 16, 32, 64)
#: Resident rows and appended keys of the sort-order maintenance table.
MERGE_ROWS = (1000, 20000, 80000)
MERGE_APPENDS = (1, 60, 600)
#: Domain sizes and cells per row of the bag-form table, and the largest
#: bag (in rows) it builds in row form.
BAG_DOMAINS = (16, 32, 48, 64, 96, 128)
BAG_CELLS_PER_ROW = (1, 2, 4)
BAG_MAX_ROWS = 1_100_000
#: Rows per side and cells per operand row of the semijoin table, and the
#: largest mask (bytes, one per cell) it builds.
MASK_ROWS = (1000, 10000, 100000)
MASK_CELLS_PER_ROW = (4, 8, 16, 32, 64, 128, 256, 512, 1024)
MASK_MAX_BYTES = 64 << 20
REPEATS = 15
#: The kernel's dense factor, and the settings at which every keyed
#: NumPy operator sorts, or none does.
FACTOR = columnar._DENSE_FACTOR
SORTED, DENSE = 0, 10**9
#: The kernel's bag cell bound.
BAG_CELLS = columnar._BAG_ARRAY_CELLS


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
    """Median microseconds of ``call`` on the dict path, then NumPy with
    dense addressing off, then on."""
    timings = []
    for rows, factor in ((10**9, FACTOR), (0, SORTED), (0, FACTOR)):
        columnar._VECTOR_MIN_ROWS = rows
        columnar._DENSE_FACTOR = factor
        call()
        timings.append(_median_us(call))
    return tuple(timings)


def _fastest(dict_us, sort_us, dense_us) -> str:
    timings = {"dict": dict_us, "sort": sort_us, "dense": dense_us}
    return min(timings, key=timings.get)


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
            dict_us, _sort_us, numpy_us = _timed_paths(join)
            faster = "numpy" if numpy_us < dict_us else "dict"
            print(
                f"{CROSS_PROBE * rows:>6} {dict_us:>8.0f} {numpy_us:>9.0f}  "
                f"{faster} ({'warm' if warm else 'cold'})"
            )


def _dense_sweep() -> None:
    print("key domain sweep, one key column, cold memos (sort / dense us)")
    print(f"{'rows':>6} {'ratio':>5} {'child_sums':>13} {'semijoin':>11} {'join':>13}")
    for rows in SWEEP_ROWS:
        for ratio in SWEEP_RATIOS:
            domain = ratio * rows
            rng = np.random.default_rng(domain)
            interner = ValueInterner()
            for value in range(domain):
                interner.intern(value)
            base = len(interner)

            def relation(column):
                keys = rng.integers(0, domain, rows, dtype=np.int64)
                data = (keys, np.arange(rows, dtype=np.int64))
                return ColumnarRelation._trusted(("k", column), interner, data, rows)

            def fresh(relation):  # same arrays, empty memos
                return ColumnarRelation._trusted(
                    relation.columns, interner, relation._data, rows
                )

            left, right = relation("x"), relation("y")
            weights = np.ones(rows, dtype=np.int64)
            calls = (
                lambda: columnar._vector_child_sums(
                    fresh(left), fresh(right), ["k"], weights, base
                ),
                lambda: fresh(left)._vector_survivors(fresh(right), ["k"], base),
                lambda: fresh(left)._vector_matches(fresh(right), ["k"], base),
            )
            cells = []
            for call in calls:
                timings = []
                for factor in (SORTED, DENSE):
                    columnar._DENSE_FACTOR = factor
                    call()
                    timings.append(_median_us(call))
                cells.append(f"{timings[0]:.0f} / {timings[1]:.0f}")
            print(f"{rows:>6} {ratio:>5} {cells[0]:>13} {cells[1]:>11} {cells[2]:>13}")


def _order_maintenance() -> None:
    print("sort order after an append of k keys to n (re-sort / merge us)")
    print(f"{'rows':>6} {'k':>4} {'re-sort / merge':>16}")
    rng = np.random.default_rng(5)
    for rows in MERGE_ROWS:
        for added in MERGE_APPENDS:
            keys = rng.integers(0, 1 << 16, rows + added, dtype=np.int64)
            older, newer = (
                ColumnarRelation._trusted(("k",), None, (keys[:n],), n)
                for n in (rows, rows + added)
            )
            older._order_cache = newer._order_cache = memo = _BoundedMemo()
            older._sorted_keys(("k",), 0)
            previous = dict(memo)

            def resort():
                memo.clear()
                newer._sorted_keys(("k",), 0)

            def merge():
                memo.clear()
                memo.update(previous)
                newer._sorted_keys(("k",), 0)

            cells = f"{_median_us(resort):.0f} / {_median_us(merge):.0f}"
            print(f"{rows:>6} {added:>4} {cells:>16}")


def _bag_forms() -> None:
    print(
        "bag forms, 6-cycle: row / array ms (build, upward pass + "
        "projection, count DP); faster form per task"
    )
    print(
        f"{'d':>4} {'cells/row':>9} {'bag_cells':>9} {'bag_rows':>8} "
        f"{'build':>13} {'reduce':>13} {'count':>13}  answer / count"
    )
    query = cqgen.cycle_query(6)
    ghd = EngineSession().plan(query).decomposition
    forms = (
        {"_BAG_ARRAY_CELLS": 0},
        {"_BAG_ARRAY_CELLS": 10**12, "_DENSE_FACTOR": 10**9},
    )
    for domain in BAG_DOMAINS:
        for per_row in BAG_CELLS_PER_ROW:
            if domain**3 // per_row > BAG_MAX_ROWS:
                continue  # the largest bag holds about d**3 / c rows
            rng = np.random.default_rng(100 * domain + per_row)
            database = Database()
            for atom in query.atoms:
                pairs = np.argwhere(rng.random((domain, domain)) < 1 / per_row)
                database.add_relation(
                    Relation(atom.relation, 2, map(tuple, pairs.tolist()))
                )
            timings = []
            for form in forms:
                columnar._VECTOR_MIN_ROWS = 0
                for name, value in form.items():
                    setattr(columnar, name, value)
                tree = build_columnar_bag_tree(query, database, ghd)
                rows = max(map(len, tree.relations.values()))
                timings.append((
                    _median_us(lambda: build_columnar_bag_tree(query, database, ghd)),
                    _median_us(lambda: yannakakis_full(tree, ("x0",))),
                    _median_us(lambda: columnar_count_join_tree(tree)),
                ))
                columnar._BAG_ARRAY_CELLS = BAG_CELLS
                columnar._DENSE_FACTOR = FACTOR
            cells = [
                f"{row / 1e3:.2f} / {array / 1e3:.2f}"
                for row, array in zip(*timings)
            ]
            (build, reduce, count), (array_build, array_reduce, array_count) = timings
            faster = [
                "array" if array < row else "rows"
                for row, array in (
                    (build + reduce, array_build + array_reduce),
                    (build + count, array_build + array_count),
                )
            ]
            print(
                f"{domain:>4} {per_row:>9} {domain**3:>9} {rows:>8} "
                f"{cells[0]:>13} {cells[1]:>13} {cells[2]:>13}  "
                f"{faster[0]} / {faster[1]}"
            )


def _semijoin_masks() -> None:
    print(
        "semijoin, one key column over c cells per operand row: mask / "
        "probe, cold sort / probe, memoised sort / np.isin (us)"
    )
    columns = ("mask", "probe_cold", "probe_warm", "np.isin")
    header = " ".join(f"{column:>10}" for column in columns)
    print(f"{'rows':>6} {'c':>5} {header}  fastest")
    stops = {}
    for rows in MASK_ROWS:
        for per_row in MASK_CELLS_PER_ROW:
            cells = per_row * 2 * rows
            rng = np.random.default_rng(cells)
            left, right = (
                ColumnarRelation._trusted(
                    ("k", column),
                    None,
                    (
                        rng.integers(0, cells, rows, dtype=np.int64),
                        np.arange(rows, dtype=np.int64),
                    ),
                    rows,
                )
                for column in ("x", "y")
            )

            def fresh(relation):  # same arrays, empty memos
                return ColumnarRelation._trusted(
                    relation.columns, None, relation._data, rows
                )

            def survivors(build):
                return lambda: fresh(left)._vector_survivors(build(), ["k"], 0)

            calls = {
                "mask": (DENSE, survivors(lambda: fresh(right))),
                "probe_cold": (SORTED, survivors(lambda: fresh(right))),
                "probe_warm": (SORTED, survivors(lambda: right)),
                "np.isin": (FACTOR, lambda: np.flatnonzero(
                    np.isin(left._data[0], right._data[0])
                )),
            }
            if cells > MASK_MAX_BYTES:
                del calls["mask"]
            timings = {}
            for name, (factor, call) in calls.items():
                columnar._DENSE_FACTOR = factor
                call()
                timings[name] = _median_us(call)
            columnar._DENSE_FACTOR = FACTOR
            fastest = min(timings, key=timings.get)
            if "mask" in timings and fastest != "mask":
                stops.setdefault(rows, per_row)
            cells_us = " ".join(
                f"{timings[column]:>10.0f}" if column in timings else f"{'-':>10}"
                for column in columns
            )
            print(f"{rows:>6} {per_row:>5} {cells_us}  {fastest}")
    for rows in MASK_ROWS:
        where = (
            f"stops winning at {stops[rows]} cells per row"
            if rows in stops
            else "wins at every c measured"
        )
        print(f"{rows:>6} rows: the mask {where}")


def main() -> None:
    threshold = columnar._VECTOR_MIN_ROWS
    try:
        for warm in (False, True):
            print("warm memos" if warm else "cold memos")
            print(
                f"{'rows':>6} {'operator':<9} {'dict_us':>8} {'sort_us':>8} "
                f"{'dense_us':>9}  fastest"
            )
            for rows in SIZES:
                rng = random.Random(rows)
                domain = max(8, int((4 * rows) ** 0.5))
                interner = ValueInterner()
                left = _relation(("x", "y", "z"), rows, domain, rng, interner)
                right = _relation(("y", "z", "w"), rows, domain, rng, interner)
                for name, call in _operators(left, right, warm).items():
                    if warm and name == "project":
                        continue  # a warm projection is a memo hit
                    timings = _timed_paths(call)
                    print(
                        f"{rows:>6} {name:<9} {timings[0]:>8.0f} "
                        f"{timings[1]:>8.0f} {timings[2]:>9.0f}  "
                        f"{_fastest(*timings)}"
                    )
        _cross_products()
        _dense_sweep()
        _order_maintenance()
        _bag_forms()
        _semijoin_masks()
    finally:
        columnar._VECTOR_MIN_ROWS = threshold
        columnar._DENSE_FACTOR = FACTOR
        columnar._BAG_ARRAY_CELLS = BAG_CELLS


if __name__ == "__main__":
    main()
