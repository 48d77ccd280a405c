"""Semi-naive incremental evaluation and the four-layer extension seam.

Two concerns, one file:

* :class:`~repro.engine.incremental.IncrementalView` — mode selection
  (initial / noop / incremental / full), exactness against a from-scratch
  evaluation after every refresh, and the threshold fallback;
* the cache-extension satellites — after ``add_fact``, each resident cache
  layer (atom views, columnar store, session partition cache, process-
  runtime resident shards) must *extend* its cached state in place and keep
  returning exact results, never serve stale data and never rebuild from
  scratch.
"""

import random

import pytest

from repro.cq.database import Database
from repro.cq.query import Atom, Constant, ConjunctiveQuery
from repro.cq.relational import from_atom
from repro.engine import (
    DEFAULT_REFRESH_THRESHOLD,
    EngineSession,
    IncrementalView,
    MODE_FULL,
    MODE_INCREMENTAL,
    MODE_INITIAL,
    MODE_NOOP,
)
from repro.engine.runtime import ProcessRuntime


def _chain_instance(seed=11, edges=400, domain=40):
    rng = random.Random(seed)
    database = Database()
    for _ in range(edges):
        database.add_fact("E", (rng.randrange(domain), rng.randrange(domain)))
    for _ in range(edges // 4):
        database.add_fact("L", (rng.randrange(domain),))
    query = ConjunctiveQuery(
        [Atom("E", ("x", "y")), Atom("E", ("y", "z")), Atom("L", ("z",))],
        free_variables=("x", "z"),
    )
    return query, database, rng


def _fresh_answer(query, database):
    return EngineSession().answer(query, database).rows


class TestIncrementalView:
    def test_initial_then_noop(self):
        query, database, _ = _chain_instance()
        session = EngineSession()
        view = session.incremental_view(query, database)
        first = view.refresh()
        assert first.incremental["mode"] == MODE_INITIAL
        assert first.rows == _fresh_answer(query, database)
        again = view.refresh()
        assert again.incremental["mode"] == MODE_NOOP
        assert again.rows == first.rows
        assert again.incremental["delta_rows"] == 0

    def test_small_append_refreshes_incrementally_and_exactly(self):
        query, database, rng = _chain_instance()
        view = EngineSession().incremental_view(query, database)
        view.refresh()
        for _ in range(5):
            database.add_fact("E", (rng.randrange(40), rng.randrange(40)))
        database.add_fact("L", (rng.randrange(40),))
        result = view.refresh()
        assert result.incremental["mode"] == MODE_INCREMENTAL
        assert result.rows == _fresh_answer(query, database)
        assert "incremental" in result.plan.rationale

    def test_large_append_falls_back_to_full_recompute(self):
        query, database, rng = _chain_instance(edges=100)
        view = EngineSession().incremental_view(query, database)
        view.refresh()
        for _ in range(300):
            database.add_fact("E", (rng.randrange(60), rng.randrange(60)))
        result = view.refresh()
        assert result.incremental["mode"] == MODE_FULL
        assert result.incremental["delta_fraction"] > DEFAULT_REFRESH_THRESHOLD
        assert result.rows == _fresh_answer(query, database)

    def test_answers_are_monotone_across_refreshes(self):
        query, database, rng = _chain_instance()
        view = EngineSession().incremental_view(query, database)
        previous = set(view.refresh().rows)
        for _ in range(6):
            database.add_fact("E", (rng.randrange(40), rng.randrange(40)))
            current = view.refresh().rows
            assert current >= previous
            previous = set(current)

    def test_self_join_and_constant_atoms(self):
        database = Database()
        for a, b in [(1, 2), (2, 3), (3, 3)]:
            database.add_fact("E", (a, b))
        query = ConjunctiveQuery(
            [Atom("E", ("x", "x")), Atom("E", ("x", "y")), Atom("E", (Constant(1), "q"))],
            free_variables=("x", "y"),
        )
        view = EngineSession().incremental_view(query, database)
        assert view.refresh().rows == {(3, 3)}
        database.add_fact("E", (3, 7))  # one new delta row -> one new answer
        result = view.refresh()
        assert result.incremental["mode"] == MODE_INCREMENTAL
        assert result.rows == {(3, 3), (3, 7)}

    def test_boolean_view_tracks_satisfiability(self):
        database = Database()
        database.add_fact("R", (1,))
        query = ConjunctiveQuery(
            [Atom("R", ("x",)), Atom("S", ("x",))], free_variables=()
        )
        view = EngineSession().incremental_view(query, database)
        view.refresh()
        assert not view.satisfiable and view.count == 0
        database.add_fact("S", (1,))
        view.refresh()
        assert view.satisfiable and view.count == 1

    def test_relation_appearing_after_registration(self):
        database = Database()
        for i in range(50):
            database.add_fact("A", (i, i + 1))
        query = ConjunctiveQuery([Atom("A", ("x", "y")), Atom("B", ("y", "z"))])
        view = EngineSession().incremental_view(query, database)
        assert view.refresh().rows == set()
        database.add_fact("B", (3, 9))
        result = view.refresh()
        assert result.incremental["mode"] == MODE_INCREMENTAL
        assert result.rows == {(2, 3, 9)}

    def test_threshold_validated_and_counted_in_session_stats(self):
        query, database, _ = _chain_instance(edges=20)
        session = EngineSession()
        with pytest.raises(ValueError):
            IncrementalView(session, query, database, threshold=1.5)
        session.incremental_view(query, database)
        assert session.stats()["incremental_views"] == 1


class TestFourLayerExtension:
    """After ``add_fact``, every resident layer extends in place."""

    def test_atom_view_layer_extends_not_rebuilds(self):
        database = Database().enable_atom_cache()
        database.add_fact("E", (1, 2))
        atom = Atom("E", ("x", "y"))
        view = from_atom(atom, database)
        view.key_index(("x",))  # memoize an index so extension must patch it
        database.add_fact("E", (2, 3))
        extended = from_atom(atom, database)
        assert extended is view
        assert (2, 3) in extended.rows
        assert extended.key_index(("x",))[(2,)] == [(2, 3)]

    def test_columnar_layer_extends_not_rebuilds(self):
        database = Database()
        database.add_fact("E", (1, 2))
        atom = Atom("E", ("x", "y"))
        before = database.columnar_view(atom)
        database.add_fact("E", (2, 3))
        after = database.columnar_view(atom)
        assert after is before
        assert len(after) == 2
        assert database.columnar_store().extensions == 1

    def test_session_partition_cache_extends_not_rebuilds(self):
        query, database, rng = _chain_instance()
        session = EngineSession()
        first = session.answer(query, database, shards=2)
        snapshot = session._partition_cache.snapshot()
        assert len(snapshot) == 1
        pieces_before = snapshot[0][1][1]
        database.add_fact("E", (0, 1))
        database.add_fact("L", (1,))
        second = session.answer(query, database, shards=2)
        snapshot = session._partition_cache.snapshot()
        pieces_after = snapshot[0][1][1]
        # Same piece objects — the delta rows were routed into the resident
        # shards, not a re-partition of the whole database.
        assert all(a is b for a, b in zip(pieces_before, pieces_after))
        assert second.rows == _fresh_answer(query, database)
        assert second.rows >= first.rows

    def test_process_runtime_ships_only_the_delta(self):
        query, database, rng = _chain_instance(edges=120)
        runtime = ProcessRuntime(max_workers=2)
        try:
            session = EngineSession()
            session.answer(query, database, shards=2, runtime=runtime)
            cold = runtime.stats()
            assert cold["shipments"] == 2
            assert cold["delta_shipments"] == 0
            database.add_fact("E", (0, 1))
            database.add_fact("L", (1,))
            result = session.answer(query, database, shards=2, runtime=runtime)
            warm = runtime.stats()
            # No full re-ship: the appended rows travelled as deltas.
            assert warm["shipments"] == 2
            assert warm["delta_shipments"] >= 1
            assert 0 < warm["delta_bytes"] < warm["shipment_bytes"]
            assert result.rows == _fresh_answer(query, database)
        finally:
            runtime.close()

    def test_incremental_view_rides_the_extended_atom_views(self):
        query, database, rng = _chain_instance()
        session = EngineSession()
        view = session.incremental_view(query, database)
        view.refresh()
        resident = [database.columnar_view(atom) for atom in query.atoms]
        store = database.columnar_store()
        extensions = store.extensions
        database.add_fact("E", (100, 0))
        result = view.refresh()
        assert result.incremental["mode"] == MODE_INCREMENTAL
        # The semi-naive terms joined the resident columnar views, which
        # the refresh extended in place instead of rebuilding.
        assert store.extensions > extensions
        for atom, before in zip(query.atoms, resident):
            assert database.columnar_view(atom) is before
        assert result.rows == _fresh_answer(query, database)
