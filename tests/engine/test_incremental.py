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
import sys
import threading
import tracemalloc
from collections.abc import Set

import pytest

from repro.cq.database import Database
from repro.cq.query import Atom, Constant, ConjunctiveQuery
from repro.engine import (
    DEFAULT_REFRESH_THRESHOLD,
    EngineSession,
    MODE_FULL,
    MODE_INCREMENTAL,
    MODE_INITIAL,
    MODE_NOOP,
)
from repro.engine.incremental import AnswerSnapshot
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

    def test_first_refresh_over_missing_relations_is_initial(self):
        # The first refresh is the full evaluation from version zero, even
        # when every version it captures is still zero.
        query = ConjunctiveQuery([Atom("A", ("x", "y")), Atom("B", ("y", "z"))])
        database = Database()
        view = EngineSession().incremental_view(query, database)
        first = view.refresh()
        assert first.incremental["mode"] == MODE_INITIAL
        assert first.rows == set()
        assert view.refresh().incremental["mode"] == MODE_NOOP
        database.add_fact("A", (1, 2))
        database.add_fact("B", (2, 3))
        assert view.refresh().rows == {(1, 2, 3)}
        assert view.refresh_modes == {MODE_INITIAL: 1, MODE_NOOP: 1, MODE_FULL: 1}

    def test_first_refresh_adopts_the_sessions_answer_set(self, monkeypatch):
        query, database, _ = _chain_instance()
        session = EngineSession()
        answered = []
        answer = session.answer

        def spy(*args, **kwargs):
            result = answer(*args, **kwargs)
            answered.append(result.rows)
            return result

        monkeypatch.setattr(session, "answer", spy)
        view = session.incremental_view(query, database)
        first = view.refresh()
        assert first.incremental["delta_rows"] == sum(
            len(relation) for relation in database.relations.values()
        )
        assert first.incremental["delta_fraction"] == 1.0
        assert view.rows is answered[0]

    def test_views_counted_in_session_stats(self):
        query, database, _ = _chain_instance(edges=20)
        session = EngineSession()
        session.incremental_view(query, database)
        assert session.stats()["incremental_views"] == 1


class TestAnswerSnapshots:
    """A refresh result's ``rows`` is a snapshot: a prefix of the view's
    append-only answer log, not a copy of the answer set."""

    def test_results_keep_their_answers_after_later_refreshes(self):
        query, database, rng = _chain_instance()
        view = EngineSession().incremental_view(query, database)
        held = [(view.refresh(), _fresh_answer(query, database))]
        database.add_fact("E", (rng.randrange(40), rng.randrange(40)))
        held.append((view.refresh(), _fresh_answer(query, database)))
        # Three more cycles: small, large (the full-recompute fallback) and
        # small again.
        for count in (5, 300, 5):
            for _ in range(count):
                database.add_fact("E", (rng.randrange(40), rng.randrange(40)))
            held.append((view.refresh(), _fresh_answer(query, database)))
        modes = [result.incremental["mode"] for result, _ in held]
        assert modes == [
            MODE_INITIAL, MODE_INCREMENTAL, MODE_INCREMENTAL, MODE_FULL,
            MODE_INCREMENTAL,
        ]
        assert len(held[0][1]) < len(held[-1][1])
        for result, expected in held:
            assert isinstance(result.rows, AnswerSnapshot)
            assert result.rows == expected
            assert sorted(result.rows) == sorted(expected)
        assert view.rows == held[-1][1]

    def test_snapshots_stay_exact_while_the_view_refreshes(self):
        # Readers iterate and compare earlier snapshots while the writer
        # appends and refreshes, so the log grows under their iterators.
        query, database, rng = _chain_instance(edges=300)
        view = EngineSession().incremental_view(query, database)
        published = [(view.refresh().rows, _fresh_answer(query, database))]
        errors = []
        done = threading.Event()

        def write():
            try:
                for _ in range(25):
                    for _ in range(3):
                        database.add_fact("E", (rng.randrange(40), rng.randrange(40)))
                    result = view.refresh()
                    published.append((result.rows, _fresh_answer(query, database)))
            except Exception as error:  # surfaced by the assert below
                errors.append(error)
            finally:
                done.set()

        def read():
            try:
                while not done.is_set():
                    for snapshot, expected in list(published):
                        assert len(list(snapshot)) == len(expected)
                        assert set(snapshot) == expected
                        assert snapshot == expected and expected <= snapshot
            except Exception as error:
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=write)] + [
                threading.Thread(target=read) for _ in range(2)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
        assert errors == []
        assert len(published) == 26
        assert len(published[0][1]) < len(published[-1][1])
        for snapshot, expected in published:
            assert snapshot == expected

    def test_one_row_refresh_does_not_copy_the_answer_set(self):
        # 300 sources -> 10 hubs -> 400 sinks: 120k answers over 7k edges.
        database = Database()
        for hub in range(1000, 1010):
            for source in range(300):
                database.add_fact("E", (source, hub))
            for sink in range(2000, 2400):
                database.add_fact("E", (hub, sink))
        query = ConjunctiveQuery(
            [Atom("E", ("x", "y")), Atom("E", ("y", "z"))]
        ).project(["x", "z"])
        view = EngineSession().incremental_view(query, database)
        view.refresh()
        assert len(view) == 120_000
        # One warm-up refresh builds the join indexes a standing view keeps.
        database.add_fact("E", (500, 1000))
        view.refresh()
        database.add_fact("E", (501, 1001))
        tracemalloc.start()
        try:
            result = view.refresh()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.incremental["mode"] == MODE_INCREMENTAL
        assert result.incremental["new_answers"] == 400
        assert len(result.rows) == 120_800
        assert peak < sys.getsizeof(view.rows) / 8

    def test_snapshot_set_semantics(self):
        log = [(1,), (2,), (3,)]
        snapshot = AnswerSnapshot(log, 2)
        log.append((4,))  # past the snapshot: invisible to it
        assert isinstance(snapshot, Set)
        assert len(snapshot) == 2 and list(snapshot) == [(1,), (2,)]
        assert (1,) in snapshot and (3,) not in snapshot
        assert snapshot == {(1,), (2,)} and {(1,), (2,)} == snapshot
        assert snapshot != {(1,), (2,), (3,)} and {(1,)} != snapshot
        assert snapshot <= {(1,), (2,), (3,)} and {(1,)} <= snapshot
        assert not snapshot <= {(1,)} and not {(1,), (3,)} <= snapshot
        for combined, expected in (
            (snapshot - {(1,)}, {(2,)}),
            ({(1,), (9,)} - snapshot, {(9,)}),
            (snapshot | {(9,)}, {(1,), (2,), (9,)}),
            ({(9,)} | snapshot, {(1,), (2,), (9,)}),
        ):
            assert type(combined) is set and combined == expected
        assert snapshot.since(0) == [(1,), (2,)] and snapshot.since(1) == [(2,)]
        assert snapshot.since(2) == []
        empty = AnswerSnapshot([], 0)
        assert len(empty) == 0 and not empty and empty == set()
        assert bool(snapshot)
        with pytest.raises(TypeError):
            hash(snapshot)


class TestFourLayerExtension:
    """After ``add_fact``, every resident layer extends instead of
    rebuilding."""

    def test_columnar_layer_extends_not_rebuilds(self):
        database = Database()
        database.add_fact("E", (1, 2))
        atom = Atom("E", ("x", "y"))
        before = database.columnar_view(atom)
        before._buckets(("x",), 0)  # a key index the next snapshot shares
        database.add_fact("E", (2, 3))
        after = database.columnar_view(atom)
        # A new snapshot over the same id table: the old one keeps its row,
        # the shared index is topped up with the appended row.
        assert after is not before
        assert len(after) == 2 and len(before) == 1
        assert database.columnar_store().extensions == 1
        interner = database.columnar_store().interner
        assert after._buckets(("x",), 0).value[interner.id_of(2)] == [1]

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
        # the refresh advanced to new snapshots sharing the old ones' key
        # structures instead of rebuilding them.
        assert store.extensions > extensions
        for atom, before in zip(query.atoms, resident):
            after = database.columnar_view(atom)
            assert after._bucket_cache is before._bucket_cache
            assert after._order_cache is before._order_cache
        assert result.rows == _fresh_answer(query, database)
