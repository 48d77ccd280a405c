"""The execution-runtime layer: the inline and process runtimes, name
resolution, session integration (``runtime=`` per call and per session), the
resident-shard protocol of the process runtime — owner placement, recovery
and its fault paths — and the operator counters.
"""

import os
import signal
import time
from collections import Counter
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.cq import generators as cqgen
from repro.cq.homomorphism import naive_count_answers, naive_enumerate_answers
from repro.engine import (
    EngineSession,
    ExecutionRuntime,
    InlineRuntime,
    ProcessRuntime,
    RUNTIME_INLINE,
    RUNTIME_PROCESS,
    RuntimeTask,
    canonical_form,
    registered_runtimes,
    runtime_for,
)
from repro.cq.database import Database
from repro.cq.query import Atom, ConjunctiveQuery, Constant
import repro.engine as engine_module
import repro.engine.runtime as runtime_module


def _revive_in_the_pickling_process(value, pid):
    if os.getpid() != pid:
        os._exit(1)
    return _PoisonConstant(value)


class _PoisonConstant(Constant):
    """A query constant that kills any process unpickling it other than the
    one that pickled it: a task that crashes every worker it reaches."""

    def __reduce__(self):
        return _revive_in_the_pickling_process, (self.value, os.getpid())


@pytest.fixture(scope="module")
def process_runtime():
    runtime = ProcessRuntime(max_workers=2)
    yield runtime
    runtime.close()


@pytest.fixture
def wheel_instance():
    query = cqgen.hub_cycle_query(4)
    return query, cqgen.random_database(query, 8, 60, seed=9)


def _echo_tasks(runtime, count=4):
    query = cqgen.chain_query(2)
    tasks = [
        RuntimeTask("answer", query, None, label=f"t{i}") for i in range(count)
    ]
    outcomes = runtime.run(tasks, lambda task: task.label)
    return tasks, outcomes


def _wait_until_dead(pid: int) -> None:
    deadline = time.time() + 5
    while time.time() < deadline:
        try:
            os.kill(pid, 0)
        except OSError:
            return
        time.sleep(0.05)


class TestRegistry:
    def test_builtins_registered(self):
        assert registered_runtimes() == (RUNTIME_INLINE, RUNTIME_PROCESS)

    def test_runtime_for_resolves_names_and_instances(self):
        inline = runtime_for(RUNTIME_INLINE)
        assert isinstance(inline, InlineRuntime)
        # Named resolution returns one shared instance per process.
        assert runtime_for(RUNTIME_INLINE) is inline
        mine = InlineRuntime()
        assert runtime_for(mine) is mine
        # Inline is the default fan-out runtime.
        assert runtime_for(None) is inline

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown runtime"):
            runtime_for("hamster-wheel")

    def test_thread_runtime_name_rejected(self, wheel_instance):
        query, database = wheel_instance
        with pytest.raises(ValueError, match="unknown runtime"):
            runtime_for("thread")
        with pytest.raises(ValueError, match="unknown runtime"):
            EngineSession().answer(query, database, shards=2, runtime="thread")

    def test_retired_thread_name_is_an_unregistered_inline_class(self):
        # ``ThreadRuntime`` stays only as a distinct class that tooling can
        # bind ``ThreadRuntime.run`` on without touching ``InlineRuntime.run``:
        # it inherits ``run``, runs inline, and is neither registered nor
        # exported.
        retired = runtime_module.ThreadRuntime
        assert retired is not InlineRuntime
        assert issubclass(retired, InlineRuntime)
        assert "run" not in vars(retired)
        assert not hasattr(engine_module, "ThreadRuntime")
        assert "ThreadRuntime" not in engine_module.__all__
        assert "thread" not in registered_runtimes()
        tasks, outcomes = _echo_tasks(retired())
        assert [o.value for o in outcomes] == [t.label for t in tasks]
        assert {o.worker for o in outcomes} == {"inline"}


class TestInline:
    def test_outcomes_align_with_tasks(self):
        tasks, outcomes = _echo_tasks(InlineRuntime())
        assert [o.value for o in outcomes] == [t.label for t in tasks]
        assert all(o.seconds >= 0.0 for o in outcomes)

    def test_inline_runs_on_the_calling_thread(self):
        _, outcomes = _echo_tasks(InlineRuntime())
        assert {o.worker for o in outcomes} == {"inline"}


class TestSessionIntegration:
    def test_default_session_fans_out_inline(self, wheel_instance):
        query, database = wheel_instance
        result = EngineSession().answer(query, database, shards=2)
        assert result.runtime["name"] == "inline"
        assert result.rows == naive_enumerate_answers(query, database)

    def test_sharded_results_match_naive_inline(self, wheel_instance):
        query, database = wheel_instance
        expected = naive_enumerate_answers(query, database)
        session = EngineSession()
        for shards in (1, 2, 4):
            result = session.answer(query, database, shards=shards, runtime="inline")
            assert result.rows == expected
            assert result.runtime["name"] == "inline"
            count = session.count(query, database, shards=shards, runtime="inline")
            assert count.count == naive_count_answers(query, database)

    def test_runtime_recorded_in_timings_beside_the_cached_plan(self, wheel_instance):
        query, database = wheel_instance
        session = EngineSession()
        result = session.answer(query, database, shards=4, runtime="inline")
        assert result.plan is session.plan(canonical_form(query)[0])
        record = result.runtime
        assert record["name"] == "inline"
        assert record["tasks"] == 4
        assert len(record["per_task_seconds"]) == 4
        assert record["workers"] == ["inline"]
        # The sharded record still carries the per-shard timings.
        assert result.sharding["per_shard_seconds"] == record["per_task_seconds"]
        # The plain single-query fast path bypasses dispatch entirely.
        assert session.answer(query, database).runtime is None

    def test_batch_routes_through_runtime(self, wheel_instance):
        query, database = wheel_instance
        session = EngineSession()
        results = session.answer_many([query, query], database, runtime="inline")
        assert results[0].rows == naive_enumerate_answers(query, database)
        assert results[0].runtime == {"name": "inline", "worker": "inline"}
        assert results[1].timings["dedup_of"] == 0

    def test_stats_count_tasks_runtimes_and_modes(self, wheel_instance):
        query, database = wheel_instance
        session = EngineSession()
        session.answer(query, database, shards=4, runtime="inline")
        session.answer(query, database, shards=1, runtime="inline")
        session.answer_many([query], database)
        stats = session.stats()
        assert stats["runtime"]["tasks_dispatched"] == 4 + 1 + 1
        assert stats["runtime"]["calls_by_runtime"] == {"inline": 3}
        assert "inline" in stats["runtime"]["workers_used"]
        assert stats["sharding"]["calls"] == 2
        assert stats["sharding"]["by_mode"] == {
            "co-partitioned": 1,
            "single-shard": 1,
        }

    def test_clear_cache_resets_entries_and_counters(self, wheel_instance):
        query, database = wheel_instance
        session = EngineSession()
        session.answer(query, database, shards=2)
        session.answer(query, database, shards=2)
        assert session.plan_cache.hits > 0
        assert session._partition_cache.hits > 0
        session.clear_cache()
        for cache in (
            session.cache,
            session.core_cache,
            session.plan_cache,
            session._partition_cache,
        ):
            assert len(cache) == 0
            assert cache.info()["hits"] == 0
            assert cache.info()["misses"] == 0

    def test_partition_cache_serves_repeated_sharded_calls(self, wheel_instance):
        query, database = wheel_instance
        session = EngineSession()
        session.answer(query, database, shards=4)
        misses = session._partition_cache.misses
        session.answer(query, database, shards=4)
        session.count(query, database, shards=4)
        assert session._partition_cache.misses == misses
        assert session._partition_cache.hits >= 2

    def test_partition_cache_invalidated_by_database_growth(self, wheel_instance):
        query, database = wheel_instance
        session = EngineSession()
        before = session.answer(query, database, shards=4).rows
        # Plant a fresh satisfying assignment: the wheel (hub h, cycle
        # x0..x3) needs H_i(h, x_i, x_{i+1}) for every i.
        for index in range(4):
            database.add_fact(
                f"H{index}", ("fresh-hub", f"v{index}", f"v{(index + 1) % 4}")
            )
        after = session.answer(query, database, shards=4)
        planted = ("fresh-hub", "v0", "v1", "v2", "v3")
        assert planted not in before
        assert planted in after.rows
        assert after.rows == naive_enumerate_answers(query, database)


class TestProcessRuntime:
    def test_worker_cap_validated(self):
        with pytest.raises(ValueError, match="max_workers"):
            ProcessRuntime(max_workers=0)

    def test_sharded_results_match_naive(self, process_runtime, wheel_instance):
        query, database = wheel_instance
        expected = naive_enumerate_answers(query, database)
        session = EngineSession()
        for shards in (1, 2, 4):
            result = session.answer(
                query, database, shards=shards, runtime=process_runtime
            )
            assert result.rows == expected
            assert result.runtime["name"] == "process"
            assert all(w.startswith("pid:") for w in result.runtime["workers"])
            count = session.count(
                query, database, shards=shards, runtime=process_runtime
            )
            assert count.count == len(expected)
            boolean = session.is_satisfiable(
                query, database, shards=shards, runtime=process_runtime
            )
            assert boolean.satisfiable == bool(expected)

    def test_workers_run_out_of_process(self, process_runtime, wheel_instance):
        query, database = wheel_instance
        session = EngineSession()
        result = session.answer(query, database, shards=4, runtime=process_runtime)
        pids = {int(w.split(":", 1)[1]) for w in result.runtime["workers"]}
        assert pids, "no worker pids recorded"
        assert os.getpid() not in pids

    def test_shards_ship_once_then_stay_resident(self, wheel_instance):
        query, database = wheel_instance
        # Owner routing makes residency deterministic at ANY pool size: an
        # N-shard cold start ships exactly N pieces (one per owner — it used
        # to converge to N x workers), each piece is resident on exactly one
        # worker, and warm calls ship tokens only.
        runtime = ProcessRuntime(max_workers=3)
        try:
            session = EngineSession()
            session.answer(query, database, shards=4, runtime=runtime)
            stats = runtime.stats()
            assert stats["shipments"] == 4
            assert stats["shipment_bytes"] > 0
            for _ in range(3):
                session.answer(query, database, shards=4, runtime=runtime)
                session.count(query, database, shards=4, runtime=runtime)
            warm = runtime.stats()
            assert warm["shipments"] == stats["shipments"]
            assert warm["shipment_bytes"] == stats["shipment_bytes"]
            assert warm["recovery_reships"] == 0
            # Each piece is resident on exactly one worker...
            residency = runtime.residency()
            tokens = [t for held in residency.values() for t in held]
            assert len(tokens) == len(set(tokens)) == 4
            # ... the one its routing table says owns it, ±1 balanced.
            routing = runtime.routing()
            for token, owner in routing.items():
                assert token in residency[owner]
            loads = sorted(len(held) for held in residency.values())
            assert loads == [1, 1, 2]
            # Every task ran on its owner: no replica routing on shards.
            assert warm["tasks_replica_routed"] == 0
            assert warm["tasks_owner_routed"] == warm["tasks_dispatched"]
        finally:
            runtime.close()

    def test_database_growth_reships_and_stays_exact(self, process_runtime):
        query = cqgen.hub_cycle_query(3)
        database = cqgen.random_database(query, 6, 20, seed=3)
        session = EngineSession()
        before = session.answer(query, database, shards=2, runtime=process_runtime)
        for index in range(3):
            database.add_fact(
                f"H{index}", ("grown-hub", f"v{index}", f"v{(index + 1) % 3}")
            )
        after = session.answer(query, database, shards=2, runtime=process_runtime)
        planted = ("grown-hub", "v0", "v1", "v2")
        assert planted not in before.rows
        assert planted in after.rows
        assert after.rows == naive_enumerate_answers(query, database)

    def test_batch_path_matches_inline(self, process_runtime):
        queries = [cqgen.chain_query(3), cqgen.cycle_query(4), cqgen.chain_query(3)]
        from repro.cq import ConjunctiveQuery

        database = cqgen.grid_constraint_database(
            ConjunctiveQuery(queries[0].atoms + queries[1].atoms), colours=3
        )
        session = EngineSession()
        inline = session.answer_many(queries, database, runtime="inline")
        remote = session.answer_many(queries, database, runtime=process_runtime)
        assert [r.rows for r in inline] == [r.rows for r in remote]
        assert remote[0].runtime["name"] == "process"
        assert remote[2].timings["dedup_of"] == 0

    def test_use_core_and_forced_strategies_reproduce_on_workers(
        self, process_runtime
    ):
        query = cqgen.zigzag_cycle_query(6, free_variables=["x0", "x1"])
        database = cqgen.random_database(query, 5, 14, seed=5)
        expected = naive_enumerate_answers(query, database)
        session = EngineSession()
        result = session.answer(
            query, database, shards=4, use_core=True, runtime=process_runtime
        )
        assert result.rows == expected
        forced = session.plan(query, force_strategy="indexed-backtracking")
        via_plan = session.answer(
            query, database, plan=forced, shards=2, runtime=process_runtime
        )
        assert via_plan.rows == expected

    def test_prebuilt_core_plan_reproduces_on_workers(self, process_runtime):
        # Regression: a pre-built use_core plan arrives with use_core=False
        # at the sharded path; the shipped task must carry the PLAN's
        # provenance, or the worker re-plans the full cyclic query under
        # the core's forced strategy and fails.
        query = cqgen.zigzag_cycle_query(6, free_variables=["x0", "x1"])
        database = cqgen.random_database(query, 5, 14, seed=5)
        session = EngineSession()
        plan = session.plan(query, use_core=True)
        assert plan.query != query, "scenario needs a core-substituted plan"
        result = session.answer(
            query, database, plan=plan, shards=2, runtime=process_runtime
        )
        assert result.rows == naive_enumerate_answers(query, database)

    def test_single_call_offload(self, process_runtime, wheel_instance):
        query, database = wheel_instance
        session = EngineSession()
        result = session.answer(query, database, runtime=process_runtime)
        assert result.rows == naive_enumerate_answers(query, database)
        assert result.sharding["mode"] == "single-shard"
        assert result.runtime["name"] == "process"

    def test_pool_recovers_from_a_killed_worker(self, wheel_instance):
        query, database = wheel_instance
        expected = naive_enumerate_answers(query, database)
        runtime = ProcessRuntime(max_workers=1)
        try:
            session = EngineSession()
            first = session.answer(query, database, shards=2, runtime=runtime)
            assert first.rows == expected
            pid = int(first.runtime["workers"][0].split(":", 1)[1])
            os.kill(pid, signal.SIGKILL)
            deadline = time.time() + 5
            while time.time() < deadline:
                try:
                    os.kill(pid, 0)
                except OSError:
                    break
                time.sleep(0.05)
            second = session.answer(query, database, shards=2, runtime=runtime)
            assert second.rows == expected
            assert runtime.stats()["worker_restarts"] >= 1
        finally:
            runtime.close()

    def test_killing_one_worker_reships_only_its_shards(self, wheel_instance):
        query, database = wheel_instance
        expected = naive_enumerate_answers(query, database)
        runtime = ProcessRuntime(max_workers=3)
        try:
            session = EngineSession()
            first = session.answer(query, database, shards=4, runtime=runtime)
            assert first.rows == expected
            routing = runtime.routing()
            stats = runtime.stats()
            victim, pid = next(
                (index, pid)
                for index, pid in sorted(stats["worker_pids"].items())
                if pid is not None and stats["resident_by_worker"][index] > 0
            )
            victim_tokens = runtime.residency()[victim]
            survivor_residency = {
                index: held
                for index, held in runtime.residency().items()
                if index != victim
            }
            os.kill(pid, signal.SIGKILL)
            deadline = time.time() + 5
            while time.time() < deadline:
                try:
                    os.kill(pid, 0)
                except OSError:
                    break
                time.sleep(0.05)
            second = session.answer(query, database, shards=4, runtime=runtime)
            assert second.rows == expected
            after = runtime.stats()
            assert after["worker_restarts"] >= 1
            # Exactly the dead worker's pieces re-shipped; every survivor's
            # residency is untouched.
            assert after["shipments"] - stats["shipments"] == len(victim_tokens)
            residency = runtime.residency()
            for index, held in survivor_residency.items():
                assert held <= residency[index]
            # ... and only the dead worker's tokens were reassigned.
            for token, owner in runtime.routing().items():
                if token in routing and token not in victim_tokens:
                    assert owner == routing[token]
        finally:
            runtime.close()

    def test_stats_shape(self, process_runtime):
        stats = process_runtime.stats()
        assert stats["name"] == "process"
        assert set(stats) == {
            "name",
            "max_workers",
            "pool_live",
            "resident_datasets",
            "tasks_dispatched",
            "tasks_owner_routed",
            "tasks_replica_routed",
            "tasks_cancelled",
            "shipments",
            "shipment_bytes",
            "delta_shipments",
            "delta_bytes",
            "tokens_retired",
            "recovery_reships",
            "worker_restarts",
            "resident_by_worker",
            "worker_pids",
        }

    def test_runtime_counters_report_on_the_runtime(self, wheel_instance):
        # The runtime owns its shipping counters; the session's stats()
        # counts only its own calls, not a runtime other sessions share.
        query, database = wheel_instance
        runtime = ProcessRuntime(max_workers=2)
        try:
            session = EngineSession()
            session.answer(query, database, shards=2, runtime=runtime)
            report = runtime.stats()
            assert report["shipments"] == 2
            assert report["shipment_bytes"] > 0
            assert report["resident_by_worker"] == {0: 1, 1: 1}
            assert "by_runtime" not in session.stats()["runtime"]
        finally:
            runtime.close()

    def test_batch_replicas_are_the_workers_that_follow_the_owner(self):
        database = Database()
        for row in ((0, 1), (1, 2), (2, 0), (2, 3), (3, 3)):
            database.add_fact("E", row)
        queries = [
            ConjunctiveQuery([Atom("E", ("x", "y"))]),
            ConjunctiveQuery([Atom("E", ("x", "y")), Atom("E", ("y", "z"))]),
            ConjunctiveQuery(
                [Atom("E", ("x", "y")), Atom("E", ("y", "z")), Atom("E", ("z", "w"))]
            ),
            ConjunctiveQuery([Atom("E", ("x", "y")), Atom("E", ("y", "x"))]),
        ]
        runtime = ProcessRuntime(max_workers=3)
        try:
            results = EngineSession().answer_many(
                queries, database, parallel=2, runtime=runtime
            )
            assert [r.rows for r in results] == [
                naive_enumerate_answers(query, database) for query in queries
            ]
            # Four classes over one database, two replicas allowed: the
            # database ships to its owner and the worker after it, and the
            # tasks alternate between the two.
            ((token, owner),) = runtime.routing().items()
            holders = {
                index for index, held in runtime.residency().items() if token in held
            }
            assert holders == {owner, (owner + 1) % 3}
            stats = runtime.stats()
            assert stats["shipments"] == 2
            assert stats["tasks_owner_routed"] == 2
            assert stats["tasks_replica_routed"] == 2
        finally:
            runtime.close()

    def test_mint_order_owners_balance_every_call(self):
        # Tokens and ownership are coordinator book-keeping: no task runs,
        # so no worker starts.
        for workers in range(1, 5):
            runtime = ProcessRuntime(max_workers=workers)
            calls = []  # keeps every call's databases, and so tokens, alive
            for pieces in range(1, 9):
                databases = [Database() for _ in range(pieces)]
                calls.append(databases)
                tokens = [runtime._token_for(database) for database in databases]
                routing = runtime.routing()
                loads = Counter(routing[token] for token in tokens)
                counts = [loads[index] for index in range(workers)]
                assert max(counts) - min(counts) <= 1, (workers, pieces, counts)
            assert runtime.stats()["pool_live"] is False

    def test_a_database_with_no_relations_ships_once_and_answers(self):
        # Resident at ``{}`` is not "not resident": the second call ships
        # nothing and the worker runs on the copy it holds.
        runtime = ProcessRuntime(max_workers=1)
        try:
            session = EngineSession()
            database = Database()
            for _ in range(2):
                result = session.answer(ConjunctiveQuery([]), database, runtime=runtime)
                assert result.rows == {()}
            stats = runtime.stats()
            assert stats["shipments"] == 1
            assert stats["delta_shipments"] == 0
            assert stats["recovery_reships"] == 0
        finally:
            runtime.close()

    def test_a_replica_records_the_versions_of_the_encoding_it_got(
        self, monkeypatch
    ):
        # An append lands after a piece is encoded and before its replica's
        # shipment in the same call, which reuses that encoding.  The
        # coordinator must record the versions the encoding holds, not the
        # database's, or the next call ships the replica nothing and it
        # answers from a copy that lacks the row.
        database = Database()
        for row in ((0, 1), (1, 2)):
            database.add_fact("E", row)
        queries = [
            ConjunctiveQuery([Atom("E", ("x", "y"))]),
            ConjunctiveQuery([Atom("E", ("x", "y")), Atom("E", ("y", "z"))]),
        ]
        encode = runtime_module.encode_delta
        appended = []

        def encode_then_append(db, since):
            delta = encode(db, since)
            if not appended:
                appended.append(True)
                db.add_fact("E", (2, 3))
            return delta

        runtime = ProcessRuntime(max_workers=2)
        try:
            session = EngineSession()
            monkeypatch.setattr(runtime_module, "encode_delta", encode_then_append)
            session.answer_many(queries, database, parallel=2, runtime=runtime)
            monkeypatch.undo()
            assert runtime.stats()["shipments"] == 2
            results = session.answer_many(
                queries, database, parallel=2, runtime=runtime
            )
            assert [r.rows for r in results] == [
                naive_enumerate_answers(query, database) for query in queries
            ]
            assert runtime.stats()["delta_shipments"] == 2
        finally:
            runtime.close()

    def test_worker_death_before_a_delta_shipment_reships_in_full(
        self, wheel_instance
    ):
        query, database = wheel_instance
        runtime = ProcessRuntime(max_workers=1)
        try:
            session = EngineSession()
            first = session.answer(query, database, shards=2, runtime=runtime)
            before = runtime.stats()
            assert before["shipments"] == 2
            pid = before["worker_pids"][0]
            os.kill(pid, signal.SIGKILL)
            _wait_until_dead(pid)
            # The append grows a resident piece, so the next call's shipment
            # to the dead owner is a delta.
            for index in range(4):
                database.add_fact(
                    f"H{index}", ("late-hub", f"w{index}", f"w{(index + 1) % 4}")
                )
            second = session.answer(query, database, shards=2, runtime=runtime)
            assert second.rows == naive_enumerate_answers(query, database)
            assert ("late-hub", "w0", "w1", "w2", "w3") in second.rows
            assert ("late-hub", "w0", "w1", "w2", "w3") not in first.rows
            after = runtime.stats()
            assert after["worker_restarts"] >= 1
            assert after["worker_pids"][0] not in (None, pid)
            # The replacement held nothing: both pieces shipped to it in full.
            assert after["shipments"] - before["shipments"] == 2
        finally:
            runtime.close()

    def test_delta_mismatch_falls_back_to_a_full_reship(self, wheel_instance):
        query, database = wheel_instance
        runtime = ProcessRuntime(max_workers=2)
        try:
            session = EngineSession()
            session.answer(query, database, shards=2, runtime=runtime)
            token, owner = min(runtime.routing().items())
            synced = runtime._slots[owner].resident[token]
            # Claim the worker's copy is one row behind in every relation: a
            # delta from that base cannot apply to the copy it really holds.
            runtime._slots[owner].resident[token] = {
                name: max(0, version - 1) for name, version in synced.items()
            }
            for index in range(4):
                database.add_fact(
                    f"H{index}", ("late-hub", f"w{index}", f"w{(index + 1) % 4}")
                )
            result = session.answer(query, database, shards=2, runtime=runtime)
            assert result.rows == naive_enumerate_answers(query, database)
            stats = runtime.stats()
            assert stats["recovery_reships"] == 1
            assert stats["worker_restarts"] == 0
        finally:
            runtime.close()

    def test_a_task_that_kills_every_worker_fails_in_bounded_time(
        self, monkeypatch
    ):
        query = ConjunctiveQuery([Atom("R", ("x", _PoisonConstant(1)))])
        database = Database()
        for row in ((0, 1), (2, 1), (3, 4)):
            database.add_fact("R", row)
        recoveries = []
        recover = ProcessRuntime._recover_worker

        def counted(self, slot_index, generation):
            recoveries.append(slot_index)
            if len(recoveries) > 6:
                pytest.fail("a poison task kept respawning workers")
            return recover(self, slot_index, generation)

        monkeypatch.setattr(ProcessRuntime, "_recover_worker", counted)
        runtime = ProcessRuntime(max_workers=1)
        try:
            session = EngineSession()
            with pytest.raises(BrokenProcessPool):
                session.answer(query, database, runtime=runtime)
            assert len(recoveries) == ProcessRuntime._SUBMIT_ATTEMPTS
            # The runtime stays usable: the next call on it answers.
            plain = ConjunctiveQuery([Atom("R", ("x", Constant(1)))])
            result = session.answer(plain, database, runtime=runtime)
            assert result.rows == {(0,), (2,)}
            assert result.runtime["name"] == "process"
        finally:
            runtime.close()

    def test_a_task_that_raises_settles_the_call(self, monkeypatch):
        # One task refuses its atom (three terms over a binary relation)
        # beside slower backtracking counts on two workers.  The error
        # reaches the caller only after the call's other futures settled.
        slow = cqgen.clique_query(7)
        database = cqgen.random_database(slow, 6, 30, seed=7)
        failing = ConjunctiveQuery([Atom("E0", ("a", "b", "c"))])
        tasks = [RuntimeTask("count", failing, database, label="failing")] + [
            RuntimeTask("count", slow, database, label=f"slow{i}") for i in range(3)
        ]
        submitted = []
        submit = ProcessRuntime._submit

        def recorded(self, *args):
            future, meta = submit(self, *args)
            submitted.append(future)
            return future, meta

        monkeypatch.setattr(ProcessRuntime, "_submit", recorded)
        runtime = ProcessRuntime(max_workers=2)
        try:
            with pytest.raises(ValueError, match="has arity 2"):
                runtime.run(tasks, None)
            assert len(submitted) == len(tasks)
            assert all(future.done() for future in submitted)
            # The failing task's worker still held a slow task behind it.
            assert 1 <= runtime.tasks_cancelled <= len(tasks) - 1
            assert runtime.tasks_dispatched == 0
            # The next call on the same runtime answers exactly.
            path = ConjunctiveQuery([Atom("E0", ("a", "b")), Atom("E1", ("b", "c"))])
            outcomes = runtime.run([RuntimeTask("count", path, database)], None)
            assert outcomes[0].value == naive_count_answers(path, database)
        finally:
            runtime.close()
