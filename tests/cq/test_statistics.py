"""Unit tests for :mod:`repro.cq.statistics`: the columnar degree vectors
(also on resident views, at each pinned version) and the estimators over
them (several shared columns, an empty side), the two join orders of one
pool, the caller-scoped ordering mode, and the join records."""

from collections import Counter

import pytest

from repro.cq.columnar import ColumnarRelation, ValueInterner
from repro.cq.database import Database, Relation
from repro.cq.query import Atom
from repro.cq.relational import NamedRelation, natural_join_all
from repro.cq.statistics import (
    ORDERING_COST,
    ORDERING_STATIC,
    estimate_join_rows,
    estimate_semijoin_fraction,
    forced_join_ordering,
    join_ordering,
    join_record,
    ledger_snapshot,
    record_cost_join,
)


# ----------------------------------------------------------------------
# Degree vectors and the estimators over them
# ----------------------------------------------------------------------
def _columnar(columns, rows, interner):
    return ColumnarRelation.from_named(NamedRelation(columns, set(rows)), interner)


def test_degrees_are_exact_and_follow_semijoin_filtering():
    interner = ValueInterner()
    # Large enough for the NumPy path's operators.
    relation = _columnar(("x", "y"), [(i % 37, i) for i in range(700)], interner)
    degrees = relation.degrees("x")
    counts = Counter(row[0] for row in relation.id_rows())
    assert degrees.tolist() == [counts[k] for k in range(len(degrees))]
    assert relation.degrees("x") is degrees, "degree vectors are memoized"
    # A semijoin's result counts its survivors; the input keeps its own.
    filtered = relation.semijoin(_columnar(("x",), [(k,) for k in range(10)], interner))
    survivors = Counter(row[0] for row in filtered.id_rows())
    assert filtered.degrees("x").tolist() == [
        survivors[k] for k in range(len(filtered.degrees("x")))
    ]
    assert relation.degrees("x") is degrees


def test_view_degrees_are_exact_at_each_pinned_version():
    database = Database()
    database.add_relation(Relation("R", 2, {(i, i % 3) for i in range(20)}))
    relation = database.relation("R")
    atom = Atom("R", ["x", "y"])

    def exact(version, length):
        interner = database.columnar_store().interner
        counts = Counter(interner.id_of(row[1]) for row in relation.rows_at(version))
        return [counts[k] for k in range(length)]

    view = database.columnar_view(atom)
    degrees = view.degrees("y")
    assert degrees.tolist() == exact(20, len(degrees))
    # An append pins a new snapshot with its own degree vectors; the older
    # snapshot keeps the counts of the rows it holds.
    database.add_fact("R", (100, 7))
    database.add_fact("R", (101, 1))
    updated = database.columnar_view(atom).degrees("y")
    assert updated.tolist() == exact(22, len(updated))
    assert updated[database.columnar_store().interner.id_of(7)] == 1
    assert view.degrees("y") is degrees
    assert degrees.tolist() == exact(20, len(degrees))


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


@pytest.mark.parametrize(
    "mode, cost_joins, static_joins",
    [(ORDERING_COST, 1, 1), (ORDERING_STATIC, 0, 2)],
)
def test_a_pool_takes_the_callers_join_order(mode, cost_joins, static_joins):
    # A triangle: the first step picks among three overlapping pairs, the
    # second has one pair left, so only the first is a cost decision.
    interner = ValueInterner()
    pool = [
        _columnar(("x", "y"), [(1, 2), (2, 3)], interner),
        _columnar(("y", "z"), [(2, 5), (3, 6)], interner),
        _columnar(("x", "z"), [(1, 5)], interner),
    ]
    with forced_join_ordering(mode), join_record() as moved:
        joined = natural_join_all(pool)
    assert joined.to_named() == NamedRelation(("x", "y", "z"), {(1, 2, 5)})
    assert moved["cost_joins"] == cost_joins and moved["static_joins"] == static_joins


def test_semijoin_fraction_against_an_empty_relation_is_zero():
    # A semijoin keeps nothing of ``left`` against an empty relation,
    # whether or not the two share a column.
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


# ----------------------------------------------------------------------
# Ordering mode and join records
# ----------------------------------------------------------------------
def test_default_mode_is_cost_based():
    assert join_ordering() == ORDERING_COST


def test_forced_join_ordering_validates_the_mode():
    with pytest.raises(ValueError):
        with forced_join_ordering("optimistic"):
            pass
    assert join_ordering() == ORDERING_COST


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
    with join_record() as moved:
        record_cost_join(12.7, 9)
    after = ledger_snapshot()
    assert moved["cost_joins"] == 1
    assert moved["estimated_rows"] == 12
    assert moved["actual_rows"] == 9
    # The process totals move by the same step.
    for field in ("cost_joins", "estimated_rows", "actual_rows"):
        assert after[field] - before[field] == moved[field]
    assert after["mode"] == join_ordering()


def test_a_nested_record_folds_into_its_callers():
    with join_record() as outer:
        record_cost_join(4.0, 3)
        with join_record() as inner:
            record_cost_join(7.0, 5)
        assert inner["cost_joins"] == 1 and inner["actual_rows"] == 5
        assert outer["cost_joins"] == 2 and outer["actual_rows"] == 8
    with join_record() as later:
        pass
    assert not any(later.values())
