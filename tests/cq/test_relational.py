"""Tests for repro.cq.relational: the named relation that atoms decode to,
atom views, and the multi-way join order over columnar pools."""

import pytest

from repro.cq import Database
from repro.cq.columnar import ColumnarRelation, ValueInterner
from repro.cq.query import Atom, Constant
from repro.cq.relational import NamedRelation, from_atom, natural_join_all


@pytest.fixture
def left():
    return NamedRelation(("x", "y"), {(1, 2), (1, 3), (2, 3)})


@pytest.fixture
def right():
    return NamedRelation(("y", "z"), {(2, 5), (3, 6)})


class TestNamedRelation:
    def test_duplicate_columns_rejected(self):
        with pytest.raises(ValueError):
            NamedRelation(("x", "x"), set())

    def test_row_width_enforced(self):
        with pytest.raises(ValueError):
            NamedRelation(("x",), {(1, 2)})

    def test_length_iteration_and_truth(self, left):
        assert len(left) == 3
        assert set(left) == {(1, 2), (1, 3), (2, 3)}
        assert left and not NamedRelation(("x",), set())

    def test_column_index_is_cached_lookup(self, left):
        assert left.column_index("y") == 1
        with pytest.raises(ValueError):
            left.column_index("nope")

    def test_equality_is_column_order_insensitive(self):
        a = NamedRelation(("x", "y"), {(1, 2)})
        b = NamedRelation(("y", "x"), {(2, 1)})
        assert a == b


class TestEquality:
    def test_permutation_equality(self):
        a = NamedRelation(("x", "y"), {(1, 2), (3, 4)})
        b = NamedRelation(("y", "x"), {(2, 1), (4, 3)})
        assert a == b

    def test_permutation_inequality(self):
        a = NamedRelation(("x", "y"), {(1, 2)})
        b = NamedRelation(("y", "x"), {(1, 2)})
        assert a != b

    def test_length_shortcut(self):
        a = NamedRelation(("x", "y"), {(1, 2)})
        b = NamedRelation(("y", "x"), {(2, 1), (4, 3)})
        assert a != b

    def test_different_column_sets(self):
        assert NamedRelation(("x",), {(1,)}) != NamedRelation(("y",), {(1,)})


class TestFromAtom:
    def test_plain_atom(self):
        db = Database()
        db.add_fact("R", (1, 2))
        relation = from_atom(Atom("R", ["x", "y"]), db)
        assert relation.columns == ("x", "y")
        assert relation.rows == {(1, 2)}

    def test_constant_selection(self):
        db = Database()
        db.add_fact("R", (1, 2))
        db.add_fact("R", (3, 2))
        relation = from_atom(Atom("R", [Constant(1), "y"]), db)
        assert relation.columns == ("y",)
        assert relation.rows == {(2,)}

    def test_repeated_variable_selection(self):
        db = Database()
        db.add_fact("R", (1, 1))
        db.add_fact("R", (1, 2))
        relation = from_atom(Atom("R", ["x", "x"]), db)
        assert relation.rows == {(1,)}

    def test_zero_arity_atom(self):
        db = Database()
        db.add_fact("Flag", ())
        relation = from_atom(Atom("Flag", []), db)
        assert relation.rows == {()}


class TestJoinPlanner:
    """``natural_join_all`` over columnar pools, checked on decoded rows."""

    @pytest.fixture
    def interner(self):
        return ValueInterner()

    def test_natural_join_all(self, left, right, interner):
        pool = [ColumnarRelation.from_named(r, interner) for r in (left, right)]
        assert natural_join_all(pool).to_named() == NamedRelation(
            ("x", "y", "z"), {(1, 2, 5), (1, 3, 6), (2, 3, 6)}
        )

    def test_natural_join_all_matches_pairwise(self, left, right, interner):
        tail = NamedRelation(("z", "w"), {(5, 0), (6, 1), (7, 2)})
        pool = [ColumnarRelation.from_named(r, interner) for r in (tail, left, right)]
        expected = {
            (x, y, z, w)
            for x, y in left for y2, z in right for z2, w in tail
            if y == y2 and z == z2
        }
        assert natural_join_all(pool).to_named() == NamedRelation(
            ("x", "y", "z", "w"), expected
        )

    def test_planner_prefers_shared_columns_over_cross_product(self, interner):
        a = NamedRelation(("x",), {(i,) for i in range(3)})
        b = NamedRelation(("y",), {(i,) for i in range(3)})
        ab = NamedRelation(("x", "y"), {(0, 0), (1, 1)})
        trace: list = []
        result = natural_join_all(
            [ColumnarRelation.from_named(r, interner) for r in (a, b, ab)], trace
        )
        assert set(result.columns) == {"x", "y"}
        assert result.to_named() == ab
        # No intermediate result grew past the pair: no cross product ran.
        assert max(trace) == len(ab)

    def test_empty_sequence_rejected(self):
        with pytest.raises(ValueError):
            natural_join_all([])

    def test_single_relation_returned_unchanged(self, left, interner):
        relation = ColumnarRelation.from_named(left, interner)
        assert natural_join_all([relation]) is relation
