"""Property tests for the exact estimates the cost-based ordering stands on
(:mod:`repro.cq.statistics` over :meth:`ColumnarRelation.degrees`).

* **estimate-vs-exact** — on one shared column, the join estimate is the
  true join size and the semijoin estimate the true surviving fraction, for
  fresh relations, for a resident view after an append, and for degree
  vectors built before and after the interner grew (different lengths);
* **order-independence** — the cost-based multi-way join over a columnar
  pool returns exactly the fixed-order reference.
"""

from hypothesis import given, settings, strategies as st

from repro.cq.columnar import ColumnarRelation, ValueInterner
from repro.cq.database import Database, Relation
from repro.cq.query import Atom
from repro.cq.relational import NamedRelation, natural_join_all
from repro.cq.statistics import (
    estimate_join_rows,
    estimate_semijoin_fraction,
    ledger_delta,
    ledger_snapshot,
)

PAIRS = st.lists(
    st.tuples(st.integers(0, 12), st.integers(0, 40)), min_size=1, max_size=80
)


def _columnar(columns, rows, interner) -> ColumnarRelation:
    return ColumnarRelation.from_named(NamedRelation(columns, set(rows)), interner)


def _assert_exact(left, right, column) -> None:
    assert estimate_join_rows(left, right, [column]) == len(left.natural_join(right))
    assert estimate_semijoin_fraction(left, right, [column]) == (
        len(left.semijoin(right)) / len(left)
    )


@settings(max_examples=200, deadline=None)
@given(left=PAIRS, right=PAIRS)
def test_single_column_estimates_are_exact(left, right):
    interner = ValueInterner()
    relation_left = _columnar(("x", "a"), left, interner)
    # Built before the right side interns its values: a shorter vector.
    relation_left.degrees("x")
    relation_right = _columnar(("x", "b"), [(x + 6, b) for x, b in right], interner)
    _assert_exact(relation_left, relation_right, "x")
    _assert_exact(relation_right, relation_left, "x")


def test_degree_vectors_of_different_lengths_compare_exactly():
    interner = ValueInterner()
    left = _columnar(("x",), [(1,), (2,), (3,)], interner)
    short = left.degrees("x")
    right = _columnar(("x", "y"), [(3, 0), (3, 1), (9, 0), (10, 2)], interner)
    assert len(right.degrees("x")) > len(short)
    _assert_exact(left, right, "x")
    _assert_exact(right, left, "x")


@settings(max_examples=60, deadline=None)
@given(base=PAIRS, appended=PAIRS, other=PAIRS)
def test_estimates_stay_exact_on_a_resident_view_after_an_append(base, appended, other):
    database = Database()
    database.add_relation(Relation("E", 2, set(base)))
    database.add_relation(Relation("S", 2, set(other)))
    edges, spokes = Atom("E", ["x", "y"]), Atom("S", ["x", "z"])
    view = database.columnar_view(edges)
    _assert_exact(view, database.columnar_view(spokes), "x")
    for row in appended:
        database.add_fact("E", (row[0] + 3, row[1]))
    grown = database.columnar_view(edges)
    assert len(grown) == len(database.relation("E"))
    for edges_view in (grown, view):
        _assert_exact(edges_view, database.columnar_view(spokes), "x")
        _assert_exact(database.columnar_view(spokes), edges_view, "x")


@settings(max_examples=60, deadline=None)
@given(
    left=st.lists(
        st.tuples(st.integers(0, 6), st.integers(0, 6)), min_size=1, max_size=60
    ),
    right=st.lists(
        st.tuples(st.integers(0, 6), st.integers(0, 6)), min_size=1, max_size=60
    ),
    mid=st.lists(
        st.tuples(st.integers(0, 6), st.integers(0, 6)), min_size=1, max_size=60
    ),
)
def test_cost_based_multiway_join_matches_pairwise_reference(left, right, mid):
    # The ordering decision must never change the *result*: a three-relation
    # columnar pool (the smallest with a genuine ordering choice, hence the
    # cost path) joined by natural_join_all equals the fixed-order reference.
    interner = ValueInterner()
    a = _columnar(("x", "y"), left, interner)
    b = _columnar(("y", "z"), right, interner)
    c = _columnar(("x", "z"), mid, interner)
    before = ledger_snapshot()
    joined = natural_join_all([a, b, c])
    assert ledger_delta(before, ledger_snapshot())["cost_joins"] == 1
    reference = a.natural_join(b).natural_join(c).project(joined.columns)
    assert joined.decode_rows() == reference.decode_rows()
