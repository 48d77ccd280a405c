"""Tests for the engine's analysis cache: memoization keyed on the
hypergraph's structural identity/hash, copy-on-write invalidation (a derived
hypergraph never reuses a stale decomposition), LRU bounds, and the lazy ghw
search.

Mirrors :mod:`tests.cq.test_relational_indexes` one layer up: there the
memoized key indexes must be dropped on mutation; here the memoized
decompositions must never be served for a structurally different hypergraph.
"""

import pytest

from repro.cq import generators as cqgen
from repro.engine import (
    AnalysisCache,
    EngineSession,
    backend_for,
)
from repro.engine.backends import BACKENDS
from repro.hypergraphs import Hypergraph


@pytest.fixture
def engine():
    return EngineSession()


@pytest.fixture
def triangle():
    return Hypergraph(edges=[{"a", "b"}, {"b", "c"}, {"a", "c"}])


@pytest.fixture
def path():
    return Hypergraph(edges=[{"a", "b"}, {"b", "c"}, {"c", "d"}])


class TestMemoization:
    def test_analysis_is_memoized(self, engine, triangle):
        first = engine.analyze(triangle)
        second = engine.analyze(triangle)
        assert first is second
        info = engine.stats()["analysis_cache"]
        assert info["hits"] == 1
        assert info["misses"] == 1

    def test_structurally_equal_hypergraphs_share_one_analysis(self, engine):
        # A repeated query rebuilt per request hits the cache: the key is the
        # hypergraph's structural hash, not object identity.
        first = engine.analyze(Hypergraph(edges=[{"x", "y"}, {"y", "z"}]))
        second = engine.analyze(Hypergraph(edges=[{"y", "z"}, {"x", "y"}]))
        assert first is second

    def test_decomposition_is_computed_once(self, engine, triangle):
        first = engine.analyze(triangle).ghw_bounds
        second = engine.analyze(triangle).ghw_bounds
        assert first is second
        assert first.decomposition.is_valid_for(triangle)


class TestCopyOnWriteInvalidation:
    """Derived hypergraphs are new structural keys: no stale decompositions."""

    def test_add_edge_gets_fresh_analysis(self, engine, path):
        stale = engine.analyze(path)
        derived = path.add_edge({"d", "a"})  # close the path into a cycle
        fresh = engine.analyze(derived)
        assert fresh is not stale
        assert stale.is_acyclic and not fresh.is_acyclic
        assert fresh.ghw_bounds.decomposition.is_valid_for(derived)

    def test_delete_vertex_gets_fresh_analysis(self, engine, triangle):
        stale = engine.analyze(triangle)
        stale_ghd = stale.ghw_bounds.decomposition
        derived = triangle.delete_vertex("a")
        fresh = engine.analyze(derived)
        assert fresh is not stale
        # The stale decomposition mentions the deleted vertex: reusing it for
        # the derived hypergraph would be wrong, and the cache never does.
        assert not stale_ghd.is_valid_for(derived)
        assert fresh.join_tree is not None  # the remains are acyclic

    def test_merge_on_vertex_gets_fresh_analysis(self, engine, path):
        stale = engine.analyze(path)
        derived = path.merge_on_vertex("b")
        fresh = engine.analyze(derived)
        assert fresh is not stale
        assert fresh.hypergraph == derived

    def test_original_analysis_survives_derivation(self, engine, path):
        original = engine.analyze(path)
        engine.analyze(path.add_edge({"d", "a"}))
        assert engine.analyze(path) is original


class TestLazyGhw:
    def test_acyclic_analysis_never_searches(self, engine, path):
        analysis = engine.analyze(path)
        assert analysis.join_tree is not None
        assert analysis.ghw_bounds.value == 1
        # Accessing the bounds answered from the join tree: no search ran.
        assert analysis.searched_decomposition is False

    def test_cyclic_analysis_searches_on_first_access(self, engine, triangle):
        analysis = engine.analyze(triangle)
        assert analysis.searched_decomposition is False
        bounds = analysis.ghw_bounds
        assert analysis.searched_decomposition is True
        assert bounds.upper >= 2

    def test_edgeless_hypergraph_has_trivial_bounds(self, engine):
        analysis = engine.analyze(Hypergraph(vertices=["a", "b"]))
        assert analysis.ghw_bounds.upper == 0
        assert analysis.searched_decomposition is False


class TestCacheBounds:
    def test_lru_eviction(self):
        cache = AnalysisCache(maxsize=2)
        first = Hypergraph(edges=[{"a", "b"}])
        second = Hypergraph(edges=[{"b", "c"}])
        third = Hypergraph(edges=[{"c", "d"}])
        cache.get_or_create(first)
        cache.get_or_create(second)
        cache.get_or_create(third)
        assert len(cache) == 2
        assert first not in cache
        assert second in cache and third in cache

    def test_recently_used_survives_eviction(self):
        cache = AnalysisCache(maxsize=2)
        first = Hypergraph(edges=[{"a", "b"}])
        second = Hypergraph(edges=[{"b", "c"}])
        cache.get_or_create(first)
        cache.get_or_create(second)
        cache.get_or_create(first)  # refresh
        cache.get_or_create(Hypergraph(edges=[{"c", "d"}]))
        assert first in cache
        assert second not in cache

    def test_clear(self, engine, triangle):
        engine.analyze(triangle)
        engine.clear_cache()
        assert engine.stats()["analysis_cache"]["size"] == 0

    def test_maxsize_validated(self):
        with pytest.raises(ValueError):
            AnalysisCache(maxsize=0)


class TestSessionPlanCache:
    """One layer above the analysis cache: a session's plan-cache hit must
    skip re-planning entirely, while copy-on-write derived structures must
    still miss both caches (no stale plan can ever be replayed)."""

    def test_plan_cache_hit_skips_replanning(self):
        session = EngineSession()
        query = cqgen.cycle_query(5)
        cold = session.plan(query)
        assert session.plan_cache.misses == 1
        # The cold plan paid for analysis + planning; the repeat must not.
        warm = session.plan(cqgen.cycle_query(5))
        assert warm is cold
        assert session.plan_cache.hits == 1
        # No second analysis happened either: one structural key, one miss.
        assert session.stats()["analysis_cache"]["misses"] == 1
        # Re-planning would have re-clocked itself; the cached object still
        # carries the one-off cold timing.
        assert warm.planning_seconds == cold.planning_seconds

    def test_derived_hypergraph_query_misses_plan_cache(self):
        session = EngineSession()
        base = cqgen.chain_query(3)
        stale = session.plan(base)
        assert stale.strategy == "direct-yannakakis"
        # Close the chain into a cycle: a structurally different query.  Both
        # the plan cache and the analysis cache must treat it as fresh.
        from repro.cq import Atom, ConjunctiveQuery

        closed = ConjunctiveQuery(base.atoms + (Atom("R3", ["x3", "x0"]),))
        fresh = session.plan(closed)
        assert fresh is not stale
        assert fresh.strategy != stale.strategy
        assert session.plan_cache.hits == 0
        assert session.plan_cache.misses == 2
        assert session.stats()["analysis_cache"]["misses"] == 2
        assert fresh.decomposition.is_valid_for(closed.hypergraph())

    def test_sessions_do_not_share_cache_state(self):
        first = EngineSession()
        second = EngineSession()
        first.plan(cqgen.cycle_query(4))
        assert len(first.plan_cache) == 1
        assert len(second.plan_cache) == 0
        assert second.stats()["analysis_cache"]["misses"] == 0


class TestBackendReplacement:
    """A substituted backend against a live session: backends resolve at
    *execution* time by strategy name, so a replacement takes
    effect for every subsequent evaluation — including evaluations replaying
    an already-cached plan — while the cached :class:`Plan` objects
    themselves are immutable records that the swap never mutates."""

    def test_replacement_takes_effect_without_mutating_cached_plans(self, monkeypatch):
        session = EngineSession()
        query = cqgen.chain_query(3)
        database = cqgen.random_database(query, 5, 30, seed=41)
        cached = session.plan(query)
        strategy = cached.strategy
        before = session.answer(query, database, plan=cached).rows
        original = backend_for(strategy)
        snapshot = (
            cached.strategy,
            cached.query,
            cached.decomposition,
            cached.rationale,
            cached.width,
        )

        class Recording:
            name = strategy
            calls = 0

            def boolean(self, q, d, p):
                return original.boolean(q, d, p)

            def answers(self, q, d, p):
                type(self).calls += 1
                return original.answers(q, d, p)

            def count(self, q, d, p):
                return original.count(q, d, p)

        monkeypatch.setitem(BACKENDS, strategy, Recording())
        # The cached plan object is served unchanged...
        replayed = session.plan(query)
        assert replayed is cached
        # ...but execution — even against the cached plan — dispatches
        # to the replacement.
        assert session.answer(query, database, plan=cached).rows == before
        assert Recording.calls == 1
        assert session.answer(query, database).rows == before
        assert Recording.calls == 2
        monkeypatch.undo()
        assert backend_for(strategy) is original
        # The swap (and the swap back) never touched the plan's fields.
        assert (
            cached.strategy,
            cached.query,
            cached.decomposition,
            cached.rationale,
            cached.width,
        ) == snapshot
