"""Unit tests for :mod:`repro.cq.statistics`: the store's exact value
counts on the version seam (including racing appends and readers), the
columnar degree vectors and the estimators over them (several shared
columns, an empty side, the reducer's child order), the static order of
tuple-set pools, the ordering-mode toggle, and the estimate ledger."""

import sys
import threading
from collections import Counter

import pytest

from repro.cq.columnar import ColumnarRelation, ValueInterner
from repro.cq.database import Database, Relation
from repro.cq.relational import NamedRelation, natural_join_all
from repro.cq.statistics import (
    ORDERING_COST,
    ORDERING_STATIC,
    StatisticsStore,
    estimate_join_rows,
    estimate_semijoin_fraction,
    forced_join_ordering,
    join_ordering,
    ledger_delta,
    ledger_snapshot,
    recent_estimates,
    record_cost_join,
    set_join_ordering,
)
from repro.cq.yannakakis import _ordered_children


def _expected_counts(relation, version):
    rows = relation.rows_at(version)
    return tuple(
        Counter(row[position] for row in rows) for position in range(relation.arity)
    )


# ----------------------------------------------------------------------
# StatisticsStore: appends extend, they never rebuild
# ----------------------------------------------------------------------
def test_store_builds_once_and_extends_on_append():
    database = Database()
    database.add_relation(Relation("R", 2, {(i, i % 3) for i in range(20)}))
    store = database.statistics()
    relation = database.relation("R")

    counts = store.relation_stats(relation)
    assert store.info() == {"relations": 1, "builds": 1, "extensions": 0}
    assert counts == _expected_counts(relation, 20)
    assert len(counts[0]) == 20 and len(counts[1]) == 3

    # A clean re-read is a pure cache hit: same object, no extension.
    assert store.relation_stats(relation) is counts
    assert store.info()["extensions"] == 0

    # Appending moves the version; the store folds exactly the delta into
    # fresh counters and leaves the ones it returned before untouched.
    database.add_fact("R", (100, 7))
    updated = store.relation_stats(relation)
    assert store.info() == {"relations": 1, "builds": 1, "extensions": 1}
    assert updated == _expected_counts(relation, 21)
    assert updated[1][7] == 1
    assert counts == _expected_counts(relation, 20)


def test_store_is_dropped_on_pickle_and_rebuilt_lazily():
    import pickle

    database = Database()
    database.add_relation(Relation("R", 1, {(1,), (2,)}))
    database.statistics().relation_stats(database.relation("R"))
    clone = pickle.loads(pickle.dumps(database))
    # The store is derived data: the clone starts fresh and rebuilds.
    store = clone.statistics()
    assert store.info()["relations"] == 0
    assert store.relation_stats(clone.relation("R")) == (Counter({1: 1, 2: 1}),)


class _RacingRelation(Relation):
    """A relation on which one append lands right after a reader has read
    :attr:`version`: the interleaving of a concurrent writer, replayed
    deterministically."""

    pending = None

    @property
    def version(self) -> int:
        version = len(self._log)
        if self.pending is not None:
            row, self.pending = self.pending, None
            self.add(row)
        return version


def test_store_folds_exactly_the_rows_below_the_version_it_records():
    relation = _RacingRelation("R", 2, [(i, i % 2) for i in range(4)])
    store = StatisticsStore()
    store.relation_stats(relation)
    relation.add((10, 0))
    # The reader sees version 5, then (11, 1) lands before it folds: that
    # row belongs to the next call, which must fold it exactly once.
    relation.pending = (11, 1)
    assert store.relation_stats(relation) == _expected_counts(relation, 5)
    assert relation.version == 6
    assert store.relation_stats(relation) == _expected_counts(relation, 6)
    assert store.relation_stats(relation) == _expected_counts(relation, 6)


def test_store_readers_racing_an_appender_see_exact_counts():
    relation = Relation("R", 2)
    store = StatisticsStore()
    appends = 400
    failures: list = []
    done = threading.Event()

    def appender():
        for i in range(appends):
            relation.add((i, i % 7))
        done.set()

    def reader():
        while True:
            finished = done.is_set()
            counts = store.relation_stats(relation)
            # Rows are distinct, so a snapshot of version v totals v rows.
            version = sum(counts[0].values())
            if counts != _expected_counts(relation, version):
                failures.append(version)
            if finished or failures:
                return

    threads = [threading.Thread(target=appender)] + [
        threading.Thread(target=reader) for _ in range(3)
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not failures, f"inexact counts at versions {failures[:5]}"
    assert store.relation_stats(relation) == _expected_counts(relation, appends)


# ----------------------------------------------------------------------
# Degree vectors and the estimators over them
# ----------------------------------------------------------------------
def _columnar(columns, rows, interner):
    return ColumnarRelation.from_named(NamedRelation(columns, set(rows)), interner)


def test_degrees_are_exact_and_follow_in_place_filtering():
    interner = ValueInterner()
    # Large enough for the NumPy path's operators.
    relation = _columnar(("x", "y"), [(i % 37, i) for i in range(700)], interner)
    degrees = relation.degrees("x")
    counts = Counter(row[0] for row in relation.id_rows())
    assert degrees.tolist() == [counts[k] for k in range(len(degrees))]
    assert relation.degrees("x") is degrees, "degree vectors are memoized"
    # Filtering in place drops the memo: the next read counts the survivors.
    relation.semijoin_inplace(_columnar(("x",), [(k,) for k in range(10)], interner))
    survivors = Counter(row[0] for row in relation.id_rows())
    assert relation.degrees("x").tolist() == [
        survivors[k] for k in range(len(relation.degrees("x")))
    ]


def test_several_shared_columns_multiply_their_selectivities():
    left_rows = {(i % 3, i % 5) for i in range(30)}
    right_rows = {(i % 2, i % 4, i) for i in range(12)}
    interner = ValueInterner()
    left = _columnar(("x", "y"), left_rows, interner)
    right = _columnar(("x", "y", "z"), right_rows, interner)

    def matches(position):
        return sum(1 for l in left_rows for r in right_rows if l[position] == r[position])

    on_x, on_y = matches(0), matches(1)
    assert estimate_join_rows(left, right, ["x"]) == on_x
    assert estimate_join_rows(left, right, ["y"]) == on_y
    base = len(left) * len(right)
    assert estimate_join_rows(left, right, ["x", "y"]) == pytest.approx(
        on_x * on_y / base
    )


def test_tuple_set_pools_take_the_static_order():
    pool = [
        NamedRelation(("x", "y"), {(1, 2), (2, 3)}),
        NamedRelation(("y", "z"), {(2, 5), (3, 6)}),
        NamedRelation(("x", "z"), {(1, 5)}),
    ]
    before = ledger_snapshot()
    joined = natural_join_all(pool)
    moved = ledger_delta(before, ledger_snapshot())
    assert joined == pool[0].natural_join(pool[1]).natural_join(pool[2])
    assert moved["cost_joins"] == 0 and moved["static_joins"] == 2


def test_semijoin_fraction_against_an_empty_relation_is_zero():
    # Both kernels' semijoin keeps nothing of ``left`` against an empty
    # relation, whether or not the two share a column.
    interner = ValueInterner()
    left = _columnar(("x",), [(1,), (2,)], interner)
    for right, shared in [
        (_columnar(("y",), [], interner), []),
        (_columnar(("x",), [], interner), ["x"]),
        (_columnar(("y",), [(3,)], interner), []),
        (_columnar(("x",), [(2,), (5,)], interner), ["x"]),
    ]:
        estimate = estimate_semijoin_fraction(left, right, shared)
        assert estimate == len(left.semijoin(right)) / len(left), (right, shared)


def test_reducer_applies_an_empty_child_first():
    # The empty child shares no column with the parent: its semijoin keeps
    # nothing, so it is the most selective filter, not the least.
    interner = ValueInterner()
    parent = _columnar(("x", "y"), [(i, i % 4) for i in range(100)], interner)
    relations = {
        "half": _columnar(("x",), [(i,) for i in range(50)], interner),
        "empty": _columnar(("z",), [], interner),
    }
    assert _ordered_children(relations, parent, ["half", "empty"]) == [
        "empty", "half"
    ]


# ----------------------------------------------------------------------
# Mode toggle and ledger
# ----------------------------------------------------------------------
def test_default_mode_is_cost_based():
    assert join_ordering() == ORDERING_COST


def test_set_join_ordering_validates_and_returns_previous():
    with pytest.raises(ValueError):
        set_join_ordering("optimistic")
    previous = set_join_ordering(ORDERING_STATIC)
    try:
        assert previous == ORDERING_COST
        assert join_ordering() == ORDERING_STATIC
    finally:
        set_join_ordering(previous)


def test_forced_join_ordering_restores_on_exit_and_error():
    with forced_join_ordering(ORDERING_STATIC):
        assert join_ordering() == ORDERING_STATIC
    assert join_ordering() == ORDERING_COST
    with pytest.raises(RuntimeError):
        with forced_join_ordering(ORDERING_STATIC):
            raise RuntimeError("boom")
    assert join_ordering() == ORDERING_COST


def test_ledger_records_estimates_vs_actuals():
    before = ledger_snapshot()
    record_cost_join(12.7, 9)
    after = ledger_snapshot()
    moved = ledger_delta(before, after)
    assert moved["cost_joins"] == 1
    assert moved["estimated_rows"] == 12
    assert moved["actual_rows"] == 9
    assert (12, 9) in recent_estimates()
    assert after["mode"] == join_ordering()
