"""The storage layer's version seam: monotone counters, the per-relation
append log (``delta_since``) and the cached sorted iteration order — the
contract every higher cache layer keys on."""

import pickle

import pytest

from repro.cq.database import Database, Relation


class TestRelationVersion:
    def test_version_counts_distinct_rows(self):
        relation = Relation("R", 2)
        assert relation.version == 0
        relation.add((1, 2))
        relation.add((3, 4))
        assert relation.version == 2
        relation.add((1, 2))  # duplicate: a no-op at every layer
        assert relation.version == 2

    def test_delta_since_returns_appended_rows_in_order(self):
        relation = Relation("R", 1, [(1,), (2,)])
        v = relation.version
        relation.add((3,))
        relation.add((2,))  # duplicate — must not appear in the delta
        relation.add((4,))
        assert relation.delta_since(v) == ((3,), (4,))
        assert relation.delta_since(0) == ((1,), (2,), (3,), (4,))
        assert relation.delta_since(relation.version) == ()

    def test_delta_since_validates_range(self):
        relation = Relation("R", 1, [(1,)])
        with pytest.raises(ValueError):
            relation.delta_since(-1)
        with pytest.raises(ValueError):
            relation.delta_since(relation.version + 1)

    def test_version_survives_pickling(self):
        relation = Relation("R", 2, [(1, 2), (3, 4)])
        clone = pickle.loads(pickle.dumps(relation))
        assert clone.version == relation.version
        assert clone.tuples == relation.tuples
        clone.add((5, 6))
        assert clone.delta_since(relation.version) == ((5, 6),)


class TestSortedIterationCache:
    def test_iteration_order_is_sorted_and_stable(self):
        relation = Relation("R", 1, [(3,), (1,), (2,)])
        assert list(relation) == [(1,), (2,), (3,)]
        # The cached order object is reused until the version moves.
        assert relation._sorted is relation._sorted

    def test_append_invalidates_the_cached_order(self):
        relation = Relation("R", 1, [(2,), (3,)])
        assert list(relation) == [(2,), (3,)]
        relation.add((1,))
        assert list(relation) == [(1,), (2,), (3,)]

    def test_duplicate_add_keeps_the_cached_order(self):
        relation = Relation("R", 1, [(1,), (2,)])
        list(relation)
        first = relation._sorted
        relation.add((1,))
        list(relation)
        assert relation._sorted is first


class TestDatabaseVersion:
    def test_database_version_moves_on_any_growth(self):
        database = Database()
        v0 = database.version
        database.add_fact("R", (1, 2))
        v1 = database.version
        assert v1 > v0  # new relation + new row
        database.add_fact("R", (1, 2))  # duplicate
        assert database.version == v1
        database.add_fact("S", (7,))
        assert database.version > v1
