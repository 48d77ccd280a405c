"""Tests for databases and relations."""

import pytest

from repro.cq import Database, Relation


class TestRelation:
    def test_add_and_contains(self):
        r = Relation("R", 2, [(1, 2)])
        assert (1, 2) in r
        assert len(r) == 1

    def test_arity_enforced(self):
        r = Relation("R", 2)
        with pytest.raises(ValueError):
            r.add((1, 2, 3))

    def test_duplicates_collapse(self):
        r = Relation("R", 1, [(1,), (1,)])
        assert len(r) == 1

    def test_size_counts_cells(self):
        r = Relation("R", 3, [(1, 2, 3), (4, 5, 6)])
        assert r.size() == 6

    def test_zero_arity_relation(self):
        r = Relation("Z", 0, [()])
        assert () in r
        assert r.size() == 1


class TestDatabase:
    def test_add_fact_creates_relation(self):
        db = Database()
        db.add_fact("R", (1, 2))
        assert db.has_relation("R")
        assert (1, 2) in db.relation("R")

    def test_duplicate_relation_rejected(self):
        db = Database([Relation("R", 1)])
        with pytest.raises(ValueError):
            db.add_relation(Relation("R", 1))

    def test_missing_relation_raises(self):
        with pytest.raises(KeyError):
            Database().relation("nope")

    def test_size_measure(self):
        db = Database()
        db.add_fact("R", (1, 2))
        db.add_fact("R", (3, 4))
        assert db.size() == 4 + 1

    def test_copy_is_independent(self):
        db = Database()
        db.add_fact("R", (1, 2))
        clone = db.copy()
        clone.add_fact("R", (5, 6))
        assert len(db.relation("R")) == 1
        assert len(clone.relation("R")) == 2

    def test_equality(self):
        a = Database()
        a.add_fact("R", (1,))
        b = Database()
        b.add_fact("R", (1,))
        assert a == b
