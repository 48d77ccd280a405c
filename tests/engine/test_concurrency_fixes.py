"""Concurrency/lifetime regressions exposed by the query service front door.

Three bugfixes, each with a test that fails on the pre-fix code:

* ``ProcessRuntime._token_for`` retained every database it ever tokenised
  (strong refs in the token map) — now weakrefs plus an id-reuse guard;
* ``LRUCache`` raced under concurrent access — now every operation locks;
* ``runtime_for`` handed out **closed** shared runtimes after
  ``shutdown_runtimes`` (or any ``close()``) — now lazily revived.

Plus the cancellation layer the service's deadlines hang off:
``CancellationToken`` / ``RunCancelled`` through every runtime and the
session fan-out paths, and ``Database.drop_columnar()`` landing between
two store reads of one call (the call mixed two interners and raised).
"""

import gc
import threading
import weakref

import pytest

from repro.cq import generators as cqgen
from repro.cq.database import Database
from repro.cq.homomorphism import naive_enumerate_answers
from repro.cq.query import Atom, ConjunctiveQuery
from repro.engine import (
    CancellationToken,
    EngineSession,
    InlineRuntime,
    ProcessRuntime,
    RunCancelled,
    RuntimeTask,
    runtime_for,
)
from repro.engine.analysis import LRUCache
from repro.engine.runtime import shutdown_runtimes
import repro.engine.runtime as runtime_module


def _database(seed: int = 0, tuples: int = 40) -> Database:
    query = cqgen.chain_query(3)
    return cqgen.random_database(query, 8, tuples, seed=seed)


# ----------------------------------------------------------------------
# Satellite 1: the token map must not retain databases
# ----------------------------------------------------------------------
class TestTokenRetention:
    def test_token_map_does_not_retain_databases(self):
        runtime = ProcessRuntime(max_workers=1)
        database = _database(seed=1)
        token = runtime._token_for(database)
        assert runtime._token_for(database) == token  # stable while alive
        ref = weakref.ref(database)
        del database
        gc.collect()
        # Pre-fix: the strong ref in _datasets kept every served database
        # alive for the runtime's lifetime (unbounded in a long-lived
        # service process).
        assert ref() is None

    def test_dead_entry_with_recycled_key_mints_fresh_token(self):
        """A new database whose ``id`` collides with a dead entry must not
        inherit the dead entry's token (a worker could still hold that
        token's *old* rows resident)."""
        runtime = ProcessRuntime(max_workers=1)
        database = _database(seed=2)
        key = id(database)
        stale = 10**6  # a token this runtime never minted
        # Install a dead entry under this database's exact key: its token
        # is tracked (routed) until the retirement cleans it up.
        runtime._datasets[key] = (stale, weakref.ref(Database()))
        gc.collect()
        assert stale in runtime.routing()
        token = runtime._token_for(database)
        assert token != stale
        assert stale not in runtime.routing()
        assert runtime.tokens_retired == 1
        # The live entry now answers for the key.
        assert runtime._token_for(database) == token

    def test_eviction_still_bounded(self, monkeypatch):
        monkeypatch.setattr(runtime_module, "MAX_DATASETS", 4)
        runtime = ProcessRuntime(max_workers=1)
        keep = [_database(seed=10 + i, tuples=5) for i in range(8)]
        for database in keep:
            runtime._token_for(database)
        assert len(runtime._datasets) <= 4


# ----------------------------------------------------------------------
# Satellite 2: LRUCache must survive concurrent use
# ----------------------------------------------------------------------
class TestLRUCacheThreadSafety:
    def test_concurrent_hammer(self):
        cache = LRUCache(8)
        errors = []
        barrier = threading.Barrier(6)

        def hammer(worker: int) -> None:
            try:
                barrier.wait(timeout=10)
                for i in range(2500):
                    key = (worker + i) % 24
                    op = i % 7
                    if op in (0, 1, 2):
                        cache.put(key, i)
                    elif op in (3, 4):
                        cache.get(key)
                    elif op == 5:
                        key in cache
                        len(cache)
                        cache.info()
                        cache.snapshot()
                    else:
                        if i % 500 == 0:
                            cache.clear()
            except Exception as exc:  # pre-fix: KeyError/RuntimeError races
                errors.append(exc)

        threads = [
            threading.Thread(target=hammer, args=(w,)) for w in range(6)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert errors == []
        assert len(cache) <= 8
        info = cache.info()
        assert info["size"] == len(cache)

    def test_snapshot_is_point_in_time_copy(self):
        cache = LRUCache(4)
        cache.put("a", 1)
        cache.put("b", 2)
        snap = cache.snapshot()
        cache.put("c", 3)
        assert snap == [("a", 1), ("b", 2)]


# ----------------------------------------------------------------------
# Satellite 3: the registry must never hand out a closed runtime
# ----------------------------------------------------------------------
class TestRuntimeRegistryRevival:
    def test_close_marks_instance(self):
        runtime = InlineRuntime()
        assert not runtime.closed
        runtime.close()
        assert runtime.closed

    def test_runtime_for_revives_closed_shared_instance(self):
        first = runtime_for("inline")
        first.close()
        second = runtime_for("inline")
        # Pre-fix: `second is first` — a dead runtime handed to every
        # subsequent caller.
        assert second is not first
        assert not second.closed
        assert runtime_for("inline") is second

    def test_usable_after_shutdown_runtimes(self):
        runtime_for("inline")
        shutdown_runtimes()
        with runtime_module._registry_lock:
            assert runtime_module._SHARED.get("inline") is None
        revived = runtime_for("inline")
        assert not revived.closed
        tasks = [RuntimeTask("answer", cqgen.chain_query(2), None, label="t")]
        outcomes = revived.run(tasks, lambda task: task.label)
        assert [o.value for o in outcomes] == ["t"]

    def test_session_call_after_shared_close(self):
        query = cqgen.chain_query(3)
        database = cqgen.random_database(query, 6, 30, seed=3)
        session = EngineSession()
        expected = session.answer(query, database).rows
        runtime_for("inline").close()
        result = session.answer(query, database, shards=2, runtime="inline")
        assert result.rows == expected


# ----------------------------------------------------------------------
# Cancellation: the seam the service's deadlines hang off
# ----------------------------------------------------------------------
class TestCancellation:
    def _tasks(self, count: int):
        query = cqgen.chain_query(2)
        return [
            RuntimeTask("answer", query, None, label=f"t{i}") for i in range(count)
        ]

    def test_token_raises_once_fired(self):
        token = CancellationToken()
        token.raise_if_cancelled()
        assert not token.cancelled
        token.cancel()
        assert token.cancelled
        with pytest.raises(RunCancelled):
            token.raise_if_cancelled()

    def test_inline_stops_between_tasks(self):
        token = CancellationToken()
        executed = []

        def run_local(task):
            executed.append(task.label)
            token.cancel()
            return task.label

        with pytest.raises(RunCancelled):
            InlineRuntime().run(self._tasks(5), run_local, cancel=token)
        assert executed == ["t0"]

    def test_pre_fired_token_skips_all_work(self):
        token = CancellationToken()
        token.cancel()
        for runtime in (InlineRuntime(), ProcessRuntime(max_workers=1)):
            with pytest.raises(RunCancelled):
                runtime.run(
                    self._tasks(3),
                    lambda task: pytest.fail("must not execute"),
                    cancel=token,
                )
        # The process runtime never even spawned its pool.

    def test_process_runtime_mid_run_cancel(self):
        query = cqgen.hub_cycle_query(5)
        database = cqgen.random_database(query, 14, 700, seed=7)
        tasks = [
            RuntimeTask("count", query, database, label=f"c{i}") for i in range(24)
        ]
        runtime = ProcessRuntime(max_workers=1)
        try:
            token = CancellationToken()
            # Fire while the single worker is still grinding through the
            # queue (each count takes far longer than 20ms here).
            timer = threading.Timer(0.05, token.cancel)
            timer.start()
            try:
                with pytest.raises(RunCancelled):
                    runtime.run(tasks, None, cancel=token)
            finally:
                timer.cancel()
            assert runtime.tasks_cancelled > 0
            # Drained, not orphaned: the runtime still answers.
            outcomes = runtime.run(tasks[:2], None)
            assert len(outcomes) == 2
        finally:
            runtime.close()

    def test_session_sharded_call_cancels(self):
        query = cqgen.chain_query(3)
        database = cqgen.random_database(query, 6, 30, seed=5)
        session = EngineSession()
        token = CancellationToken()
        token.cancel()
        with pytest.raises(RunCancelled):
            session.answer(query, database, shards=2, cancel=token)
        with pytest.raises(RunCancelled):
            session.answer_many([query], database, cancel=token)
        # A fresh call without a token is unaffected.
        assert session.answer(query, database, shards=2).rows == session.answer(
            query, database
        ).rows


# ----------------------------------------------------------------------
# drop_columnar() racing a call: one store read per call
# ----------------------------------------------------------------------
class TestStoreDroppedMidCall:
    """Replays ``drop_columnar()`` landing right after a call's second atom
    view: every view (and the interner, and a refresh's deltas) must come
    from the store the call read first, or joins mix two interners."""

    @staticmethod
    def _drop_after_second_view(monkeypatch) -> list:
        fetch = Database.columnar_view
        calls: list = []

        def fetch_then_drop(database, *args, **kwargs):
            view = fetch(database, *args, **kwargs)
            calls.append(view)
            if len(calls) == 2:
                database.drop_columnar()
            return view

        monkeypatch.setattr(Database, "columnar_view", fetch_then_drop)
        return calls

    def test_answer(self, monkeypatch):
        query = cqgen.cycle_query(4)
        database = cqgen.random_database(query, 6, 40, seed=11)
        session = EngineSession()
        calls = self._drop_after_second_view(monkeypatch)
        result = session.answer(query, database)
        assert len(calls) >= 2
        monkeypatch.undo()
        assert result.rows == naive_enumerate_answers(query, database)

    def test_incremental_refresh(self, monkeypatch):
        query = ConjunctiveQuery(
            [Atom("E", ["x", "y"]), Atom("E", ["y", "z"])]
        ).project(["x", "z"])
        database = Database()
        for i in range(60):
            database.add_fact("E", (i % 17, (5 * i) % 19))
        session = EngineSession()
        view = session.incremental_view(query, database)
        view.refresh()
        database.add_fact("E", (3, 100))
        database.add_fact("E", (100, 4))
        calls = self._drop_after_second_view(monkeypatch)
        result = view.refresh()
        assert len(calls) >= 2
        monkeypatch.undo()
        assert result.timings["incremental"]["mode"] == "incremental"
        assert set(result.rows) == naive_enumerate_answers(query, database)
