"""The bounded derived-key memos of the columnar kernel: LRU behaviour at
the cap, hit/miss/eviction counters, where those process totals are
reported (``memo_counters()``, not ``EngineSession.stats()``), and the dict
path's hash buckets: memoized per key column set, reused by every join
that builds on them, and kept by a semijoin that filters nothing."""

import itertools

from repro.cq import columnar
from repro.cq.columnar import (
    _MEMO_CAP,
    _BoundedMemo,
    ColumnarRelation,
    ValueInterner,
    memo_counters,
    reset_memo_counters,
)
from repro.cq.relational import NamedRelation


def test_bounded_memo_caps_and_evicts_lru():
    reset_memo_counters()
    memo = _BoundedMemo()
    for key in range(_MEMO_CAP):
        memo.store(key, f"v{key}")
    assert len(memo) == _MEMO_CAP
    # Touch key 0 so it becomes most-recent; the next store evicts key 1.
    assert memo.lookup(0) == "v0"
    memo.store("new", "vn")
    assert len(memo) == _MEMO_CAP
    assert 0 in memo and "new" in memo
    assert 1 not in memo, "eviction must hit the least recently used entry"
    counters = memo_counters()
    assert counters["hits"] == 1
    assert counters["evictions"] == 1


def test_bounded_memo_counts_misses():
    reset_memo_counters()
    memo = _BoundedMemo()
    assert memo.lookup("absent") is None
    memo.store("k", "v")
    assert memo.lookup("k") == "v"
    counters = memo_counters()
    assert counters["misses"] == 1
    assert counters["hits"] == 1


def test_bounded_memo_is_a_dict():
    # The columnar store's extend-in-place path iterates, patches, and
    # purges the memos directly — they must stay real dicts.
    memo = _BoundedMemo()
    memo.store("a", [1])
    memo["a"].append(2)
    assert dict(memo) == {"a": [1, 2]}
    del memo["a"]
    assert not memo


def test_relation_key_memos_stay_bounded_under_many_patterns():
    # Seven columns give 21 two-column probe patterns (> _MEMO_CAP): the
    # per-relation memos must evict instead of growing without bound.
    columns = tuple(f"c{i}" for i in range(7))
    rows = {tuple((r * (i + 1)) % 5 for i in range(7)) for r in range(40)}
    relation = ColumnarRelation.from_named(
        NamedRelation(columns, rows), ValueInterner()
    )
    base = len(relation.interner)
    patterns = list(itertools.combinations(columns, 2))
    assert len(patterns) > _MEMO_CAP
    for pattern in patterns:
        relation._buckets(pattern, base)
        relation._keyset(pattern, base)
        relation._keys(pattern, base)
    assert len(relation._key_cache) <= _MEMO_CAP
    assert len(relation._bucket_cache) <= _MEMO_CAP
    assert len(relation._keyset_cache) <= _MEMO_CAP
    # Re-probing a recent pattern is a pure hit — no new entries.
    before = memo_counters()["hits"]
    relation._buckets(patterns[-1], base)
    assert memo_counters()["hits"] > before


def test_memo_and_ordering_counters_report_from_their_owners():
    # Both are process totals, so a session's stats() leaves them out.
    from repro.cq.statistics import ledger_snapshot
    from repro.engine.session import EngineSession

    assert set(memo_counters()) == {"hits", "misses", "evictions"}
    ledger = ledger_snapshot()
    assert ledger["mode"] in ("cost-based", "static-greedy")
    for field in ("cost_joins", "static_joins", "prefilter_passes"):
        assert field in ledger
    stats = EngineSession().stats()
    assert "columnar_memo" not in stats and "join_ordering" not in stats


def _relation(columns, rows, interner) -> ColumnarRelation:
    return ColumnarRelation.from_named(NamedRelation(columns, set(rows)), interner)


def _decoded_buckets(relation, columns, base) -> dict:
    """The hash buckets of ``columns`` as ``value -> row set``, decoded."""
    values = relation.interner.values
    rows = list(relation.id_rows())
    return {
        values[key]: {tuple(values[i] for i in rows[index]) for index in indexes}
        for key, indexes in relation._buckets(columns, base).value.items()
    }


def test_hash_buckets_are_memoized():
    interner = ValueInterner()
    left = _relation(("x", "y"), {(1, 2), (1, 3), (2, 3)}, interner)
    base = len(interner)
    first = left._buckets(("x",), base)
    assert left._buckets(("x",), base) is first
    assert _decoded_buckets(left, ("x",), base) == {
        1: {(1, 2), (1, 3)},
        2: {(2, 3)},
    }


def test_distinct_key_columns_get_distinct_buckets():
    interner = ValueInterner()
    left = _relation(("x", "y"), {(1, 2), (1, 3), (2, 3)}, interner)
    base = len(interner)
    by_x = left._buckets(("x",), base)
    by_y = left._buckets(("y",), base)
    assert by_x is not by_y
    assert len(left._bucket_cache) == 2


def test_a_join_builds_and_reuses_the_other_sides_buckets():
    interner = ValueInterner()
    left = _relation(("x", "y"), {(1, 2), (1, 3), (2, 3)}, interner)
    right = _relation(("y", "z"), {(2, 5), (3, 6)}, interner)
    base = len(interner)
    expected = {(1, 2, 5), (1, 3, 6), (2, 3, 6)}
    assert left.natural_join(right).decode_rows() == expected
    cached = right._buckets(("y",), base)
    assert left.natural_join(right).decode_rows() == expected
    assert right._buckets(("y",), base) is cached
    assert not left._bucket_cache, "the probe side builds no buckets"


def test_semijoin_returns_self_with_its_memos_only_when_nothing_is_filtered():
    interner = ValueInterner()
    left = _relation(("x", "y"), {(1, 2), (1, 3), (2, 3)}, interner)
    right = _relation(("y", "z"), {(2, 5), (3, 6)}, interner)
    base = len(interner)
    memo = left._buckets(("x",), base)
    assert left.semijoin(right) is left  # nothing filtered...
    assert left._buckets(("x",), base) is memo  # ...so the memo serves on
    filtered = left.semijoin(_relation(("y",), {(2,)}, interner))
    assert filtered is not left
    assert filtered.decode_rows() == {(1, 2)}
    assert not filtered._bucket_cache, "a filtered relation starts without memos"
    assert _decoded_buckets(filtered, ("x",), base) == {1: {(1, 2)}}
    # The input keeps its rows and its memo.
    assert left.decode_rows() == {(1, 2), (1, 3), (2, 3)}
    assert left._buckets(("x",), base) is memo
