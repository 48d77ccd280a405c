"""The bounded derived-key memos of the columnar kernel: LRU behaviour at
the cap, hit/miss/eviction counters, and their surfacing through
``EngineSession.stats()``."""

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


def test_session_stats_surface_memo_and_ordering_counters():
    from repro.engine.session import EngineSession

    stats = EngineSession().stats()
    assert set(stats["columnar_memo"]) == {"hits", "misses", "evictions"}
    assert stats["join_ordering"]["mode"] in ("cost-based", "static-greedy")
    for field in ("cost_joins", "static_joins", "prefilter_passes"):
        assert field in stats["join_ordering"]
