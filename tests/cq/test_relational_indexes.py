"""Tests for the zero-copy relational kernel: memoized key indexes, cache
invalidation, in-place semijoin, the multi-way join planner, and the
permutation-based equality."""

import pytest

from repro.cq.relational import NamedRelation, natural_join_all


@pytest.fixture
def left():
    return NamedRelation(("x", "y"), {(1, 2), (1, 3), (2, 3)})


@pytest.fixture
def right():
    return NamedRelation(("y", "z"), {(2, 5), (3, 6)})


class TestKeyIndexCache:
    def test_index_is_memoized(self, left):
        first = left.key_index(["x"])
        second = left.key_index(["x"])
        assert first is second
        assert set(first) == {(1,), (2,)}
        assert sorted(first[(1,)]) == [(1, 2), (1, 3)]

    def test_distinct_keys_get_distinct_indexes(self, left):
        by_x = left.key_index(["x"])
        by_y = left.key_index(["y"])
        assert by_x is not by_y
        assert len(left.cached_index_keys) == 2

    def test_join_populates_and_reuses_other_index(self, left, right):
        left.natural_join(right)
        cached = right.key_index(["y"])
        # A second join reuses the same memoized index object.
        left.natural_join(right)
        assert right.key_index(["y"]) is cached

    def test_invalidate_indexes(self, left):
        stale = left.key_index(["x"])
        left.rows.add((9, 9))
        left.invalidate_indexes()
        fresh = left.key_index(["x"])
        assert fresh is not stale
        assert (9,) in fresh

    def test_semijoin_inplace_invalidates_cache(self, left, right):
        stale = left.key_index(["x"])
        result = left.semijoin_inplace(right)
        assert result is left
        assert left.rows == {(1, 2), (1, 3), (2, 3)}  # nothing filtered...
        assert left.key_index(["x"]) is stale  # ...so the cache survives
        left.semijoin_inplace(NamedRelation(("y",), {(2,)}))
        assert left.rows == {(1, 2)}
        assert left.key_index(["x"]) is not stale  # mutation dropped the cache

    def test_semijoin_zero_copy_when_nothing_filtered(self, left, right):
        assert left.semijoin(right) is left

    def test_semijoin_still_filters(self, left):
        filtered = left.semijoin(NamedRelation(("y",), {(2,)}))
        assert filtered is not left
        assert filtered.rows == {(1, 2)}


class TestZeroCopyPaths:
    def test_project_onto_all_columns_is_self(self, left):
        assert left.project(("x", "y")) is left

    def test_rename_shares_rows(self, left):
        renamed = left.rename({"x": "a"})
        assert renamed.rows is left.rows
        assert renamed.columns == ("a", "y")
        # In-place filtering on the original rebinds, never mutates, the
        # shared set: the renamed view is unaffected.
        left.semijoin_inplace(NamedRelation(("y",), {(2,)}))
        assert renamed.rows == {(1, 2), (1, 3), (2, 3)}

    def test_identity_rename_is_self(self, left):
        assert left.rename({}) is left

    def test_column_index_is_cached_lookup(self, left):
        assert left.column_index("y") == 1
        with pytest.raises(ValueError):
            left.column_index("nope")


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


class TestJoinPlanner:
    def test_natural_join_all_matches_pairwise(self, left, right):
        tail = NamedRelation(("z", "w"), {(5, 0), (6, 1), (7, 2)})
        planned = natural_join_all([tail, left, right])
        pairwise = left.natural_join(right).natural_join(tail)
        assert planned == pairwise

    def test_planner_prefers_shared_columns_over_cross_product(self):
        a = NamedRelation(("x",), {(i,) for i in range(3)})
        b = NamedRelation(("y",), {(i,) for i in range(3)})
        ab = NamedRelation(("x", "y"), {(0, 0), (1, 1)})
        result = natural_join_all([a, b, ab])
        assert set(result.columns) == {"x", "y"}
        assert result == ab

    def test_empty_sequence_rejected(self):
        with pytest.raises(ValueError):
            natural_join_all([])

    def test_single_relation_returned_unchanged(self, left):
        assert natural_join_all([left]) is left
