"""Tests for the relational-algebra kernel."""

import pytest

from repro.cq import Database
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

    def test_projection(self, left):
        projected = left.project(["x"])
        assert projected.rows == {(1,), (2,)}

    def test_projection_onto_nothing(self, left):
        assert left.project([]).rows == {()}

    def test_select_equal(self, left):
        assert left.select_equal("x", 1).rows == {(1, 2), (1, 3)}

    def test_rename(self, left):
        renamed = left.rename({"x": "a"})
        assert renamed.columns == ("a", "y")

    def test_natural_join(self, left, right):
        joined = left.natural_join(right)
        assert set(joined.columns) == {"x", "y", "z"}
        assert (1, 2, 5) in joined.rows
        assert (2, 3, 6) in joined.rows
        assert len(joined) == 3

    def test_join_without_shared_columns_is_product(self):
        a = NamedRelation(("x",), {(1,), (2,)})
        b = NamedRelation(("y",), {(7,)})
        assert len(a.natural_join(b)) == 2

    def test_semijoin(self, left, right):
        filtered = left.semijoin(NamedRelation(("y",), {(2,)}))
        assert filtered.rows == {(1, 2)}

    def test_semijoin_no_shared_columns(self, left):
        empty_other = NamedRelation(("q",), set())
        assert len(left.semijoin(empty_other)) == 0
        nonempty_other = NamedRelation(("q",), {(1,)})
        assert left.semijoin(nonempty_other).rows == left.rows

    def test_cross_product_requires_disjoint(self, left):
        with pytest.raises(ValueError):
            left.cross_product(left)

    def test_equality_is_column_order_insensitive(self):
        a = NamedRelation(("x", "y"), {(1, 2)})
        b = NamedRelation(("y", "x"), {(2, 1)})
        assert a == b

    def test_natural_join_all(self, left, right):
        result = natural_join_all([left, right])
        assert len(result) == 3


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
