"""EngineSession: session-scoped plan caching, isomorphism dedup, batch
execution (sequential and parallel), and the default session behind the
module-level API."""

import dataclasses
import threading

import pytest

import repro.engine as engine_module
import repro.engine.session as session_module
from repro.cq import Atom, ConjunctiveQuery, Database, Relation
from repro.cq.query import Constant
from repro.cq import generators as cqgen
from repro.cq import workloads
from repro.cq.homomorphism import naive_count_answers, naive_enumerate_answers
from repro.cq.statistics import ORDERING_COST, ORDERING_STATIC, forced_join_ordering
from repro.engine import (
    MODE_FULL,
    MODE_INCREMENTAL,
    MODE_INITIAL,
    MODE_NOOP,
    EngineSession,
    ProcessRuntime,
    answer_many,
    canonical_form,
    canonical_query_key,
    default_session,
)


@pytest.fixture
def session():
    return EngineSession()


@pytest.fixture
def cycle_instance():
    query = cqgen.cycle_query(4)
    return query, cqgen.grid_constraint_database(query, colours=3)


def renamed(query, suffix="_r"):
    """A structurally isomorphic copy: every variable renamed."""
    atoms = [
        Atom(atom.relation, [f"{t}{suffix}" for t in atom.terms])
        for atom in query.atoms
    ]
    return ConjunctiveQuery(
        atoms, free_variables=[f"{v}{suffix}" for v in query.free_variables]
    )


class TestCanonicalQueryKey:
    def test_identical_queries_collide(self):
        assert canonical_query_key(cqgen.chain_query(3)) == canonical_query_key(
            cqgen.chain_query(3)
        )

    def test_variable_renaming_collides(self):
        query = cqgen.cycle_query(5)
        assert canonical_query_key(query) == canonical_query_key(renamed(query))

    def test_atom_order_is_irrelevant(self):
        # Same head order (the default head of `forward` is atom-order
        # dependent, so `backward` pins it explicitly): only the atom
        # *listing* differs, and the key ignores it.
        forward = ConjunctiveQuery([Atom("R", ["x", "y"]), Atom("S", ["y", "z"])])
        backward = ConjunctiveQuery(
            [Atom("S", ["b", "c"]), Atom("R", ["a", "b"])],
            free_variables=["a", "b", "c"],
        )
        assert canonical_query_key(forward) == canonical_query_key(backward)

    def test_default_heads_of_reordered_atoms_separate(self):
        # Full queries inherit their head order from the atom listing, so
        # reordering atoms changes the answer-column order: no collision.
        forward = ConjunctiveQuery([Atom("R", ["x", "y"]), Atom("S", ["y", "z"])])
        backward = ConjunctiveQuery([Atom("S", ["b", "c"]), Atom("R", ["a", "b"])])
        assert canonical_query_key(forward) != canonical_query_key(backward)

    def test_free_variable_order_separates(self):
        # Answer tuples follow the head order: these are different queries.
        query = cqgen.chain_query(2)
        swapped = query.project(["x1", "x0"])
        assert canonical_query_key(query.project(["x0", "x1"])) != canonical_query_key(
            swapped
        )

    def test_relation_names_separate(self):
        first = ConjunctiveQuery([Atom("R", ["x", "y"])])
        second = ConjunctiveQuery([Atom("S", ["x", "y"])])
        assert canonical_query_key(first) != canonical_query_key(second)

    def test_constants_separate(self):
        first = ConjunctiveQuery([Atom("R", ["x", Constant(1)])])
        second = ConjunctiveQuery([Atom("R", ["x", Constant(2)])])
        third = ConjunctiveQuery([Atom("R", ["x", Constant(1)])])
        assert canonical_query_key(first) != canonical_query_key(second)
        assert canonical_query_key(first) == canonical_query_key(third)

    def test_self_join_falls_back_to_exact(self):
        # Renaming a self-join query is NOT recognised (graph canonisation),
        # but exact repeats still collide.
        query = cqgen.zigzag_cycle_query(4)
        assert canonical_query_key(query) == canonical_query_key(
            cqgen.zigzag_cycle_query(4)
        )
        assert canonical_query_key(query)[0] == "exact"
        assert canonical_query_key(query) != canonical_query_key(renamed(query))


def respelled(query, suffix="_r"):
    """A renamed copy with its atoms listed in reverse; the head order is
    kept, so the answer tuples stay the original's."""
    copy = renamed(query, suffix)
    return ConjunctiveQuery(copy.atoms[::-1], free_variables=copy.free_variables)


class TestCanonicalIdentity:
    """Every spelling of a query runs its canonical form: one plan, one
    analysis and one atom view per atom, whatever the variables are called
    and in whatever order the atoms come."""

    def test_the_form_sorts_atoms_and_renames_by_first_occurrence(self):
        query = ConjunctiveQuery(
            [Atom("S", ["b", Constant(1), "c"]), Atom("R", ["a", "b", "a"])],
            free_variables=["c", "a"],
        )
        form, renaming = canonical_form(query)
        assert form.atoms == (
            Atom("R", ["v0", "v1", "v0"]), Atom("S", ["v1", Constant(1), "v2"])
        )
        assert form.free_variables == ("v2", "v0")
        assert renaming == {"a": "v0", "b": "v1", "c": "v2"}
        assert canonical_form(form)[0] is form
        self_join = cqgen.zigzag_cycle_query(4)
        assert canonical_form(self_join)[0] is self_join

    def test_variants_share_one_plan_one_analysis_and_one_view_per_atom(
        self, session
    ):
        query = cqgen.cycle_query(5).project(["x3", "x0"])
        database = cqgen.random_database(query, 6, 40, seed=2)
        expected = naive_enumerate_answers(query, database)
        first, second = respelled(query, "_a"), respelled(query, "_b")
        assert session.answer(first, database).rows == expected
        result = session.answer(second, database)
        assert result.rows == expected
        stats = session.stats()
        assert (stats["plan_cache"]["misses"], stats["plan_cache"]["hits"]) == (1, 1)
        assert stats["analysis_cache"]["misses"] == 1
        views = database.columnar_cache.info()
        assert (views["size"], views["misses"]) == (len(query.atoms),) * 2
        # The second caller gets the cached plan itself; its renaming onto
        # the plan's spelling is its own canonical form's.
        form, renaming = canonical_form(second)
        assert result.plan is session.plan(form)
        assert result.plan.source_query == form
        assert set(renaming) == set(second.variables)
        assert set(renaming.values()) == set(result.plan.query.variables)

    def test_a_variant_shards_on_its_own_variable_name(self, session):
        query = cqgen.cycle_query(5)
        database = cqgen.random_database(query, 8, 40, seed=4)
        expected = naive_enumerate_answers(query, database)
        base = session.answer(query, database, shards=2, shard_variable="x0")
        variant = session.answer(
            respelled(query), database, shards=2, shard_variable="x0_r"
        )
        assert base.rows == variant.rows == expected
        assert variant.sharding["mode"] == base.sharding["mode"] == "broadcast"
        assert variant.sharding["shard_variable"] == "x0_r"
        # A canonical name the caller's query does not use is no variable
        # of it.
        with pytest.raises(ValueError, match="does not occur"):
            session.answer(respelled(query), database, shards=2, shard_variable="v0")

    def test_a_caller_plan_serves_another_spelling(self, session):
        query = cqgen.chain_query(3).project(["x2", "x0"])
        database = cqgen.random_database(query, 5, 20, seed=1)
        plan = session.plan(query)
        variant = respelled(query)
        result = session.answer(variant, database, plan=plan)
        assert result.rows == naive_enumerate_answers(query, database)
        assert result.plan is plan
        sharded = session.count(
            variant, database, plan=plan, shards=2, shard_variable="x1_r"
        )
        assert sharded.count == len(result.rows)
        assert sharded.sharding["shard_variable"] == "x1_r"
        assert sharded.plan is plan

    def test_one_query_object_builds_its_form_once(self, session, monkeypatch):
        built = []
        canonicalise = session_module._canonicalise

        def spy(query):
            built.append(query)
            return canonicalise(query)

        monkeypatch.setattr(session_module, "_canonicalise", spy)
        query = respelled(cqgen.chain_query(3).project(["x2", "x0"]))
        database = cqgen.random_database(query, 5, 20, seed=1)
        expected = naive_enumerate_answers(query, database)
        assert session.answer(query, database).rows == expected
        assert session.answer(query, database).rows == expected
        assert len(built) == 1 and built[0] is query
        # The memo is the object's, not its equality class's: an equal
        # query with another head order has its own form.
        reordered = query.project(reversed(query.free_variables))
        assert reordered == query
        assert canonical_form(reordered)[0].free_variables == ("v0", "v2")
        assert canonical_form(query)[0].free_variables == ("v2", "v0")
        # A caller cannot change the memo through the renaming it gets.
        canonical_form(query)[1]["x0_r"] = "tampered"
        assert canonical_form(query)[1]["x0_r"] == "v0"


class TestPlanIdentity:
    """Every result carries the session's cached plan object itself —
    whatever the spelling, and on the plain, batch, sharded and standing-view
    paths alike — and a plan cannot change once made."""

    def test_every_path_returns_the_cached_plan_of_the_form(self, session):
        query = respelled(cqgen.cycle_query(5).project(["x3", "x0"]))
        database = cqgen.random_database(query, 6, 40, seed=2)
        form = canonical_form(query)[0]
        assert form is not query
        expected = naive_enumerate_answers(query, database)
        plain = session.answer(query, database)
        assert plain.rows == expected
        plan = session.plan(form)
        assert plain.plan is plan
        batch = session.answer_many([query, renamed(query, "_s")], database)
        assert batch[1].timings["dedup_of"] == 0
        assert all(result.plan is plan for result in batch)
        sharded = session.count(query, database, shards=2)
        assert sharded.count == len(expected)
        assert sharded.sharding["shards"] == 2
        assert sharded.plan is plan
        view = session.incremental_view(query, database)
        results = [view.refresh()]
        database.add_fact("R0", (100, 101))
        results.append(view.refresh())
        results.append(view.refresh())
        for value in range(60):
            database.add_fact("R1", (200 + value, 300 + value))
        results.append(view.refresh())
        assert [result.incremental["mode"] for result in results] == [
            MODE_INITIAL, MODE_INCREMENTAL, MODE_NOOP, MODE_FULL,
        ]
        assert all(result.plan is plan for result in results)
        assert results[-1].rows == naive_enumerate_answers(query, database)

    def test_a_plan_cannot_be_changed(self, session):
        plan = session.plan(cqgen.cycle_query(4))
        with pytest.raises(dataclasses.FrozenInstanceError):
            plan.rationale = "a per-call note"
        with pytest.raises(dataclasses.FrozenInstanceError):
            plan.source_query = None
        assert session.plan(cqgen.cycle_query(4)) is plan


class TestPlanCache:
    def test_repeat_plan_is_served_from_cache(self, session):
        query = cqgen.cycle_query(4)
        first = session.plan(query)
        second = session.plan(query)
        assert second is first
        assert session.plan_cache.hits == 1
        assert session.plan_cache.misses == 1

    def test_rebuilt_query_hits_too(self, session):
        first = session.plan(cqgen.cycle_query(4))
        second = session.plan(cqgen.cycle_query(4))
        assert second is first

    def test_options_are_part_of_the_key(self, session):
        query = cqgen.zigzag_cycle_query(4)
        plain = session.plan(query)
        semantic = session.plan(query, use_core=True)
        forced = session.plan(query, force_strategy="indexed-backtracking")
        assert plain is not semantic
        assert plain is not forced
        assert semantic.strategy == "direct-yannakakis"
        assert plain.strategy == "ghd-guided"

    def test_projection_order_is_part_of_the_key(self, session):
        query = cqgen.chain_query(2)
        assert session.plan(query.project(["x0", "x1"])) is not session.plan(
            query.project(["x1", "x0"])
        )

    def test_warm_call_does_not_rebill_cold_planning(self, session, cycle_instance):
        query, database = cycle_instance
        cold = session.answer(query, database)
        warm = session.answer(query, database)
        # Each result carries its own renaming-noted copy of the one cached
        # plan: the warm call was a plan-cache hit.
        assert session.plan_cache.hits == 1
        assert warm.plan.planning_seconds == cold.plan.planning_seconds
        # The cold call paid (and reported) the real analysis+planning cost;
        # the warm call only did a cache lookup and must not re-report the
        # plan's one-off cost as its own.
        assert cold.timings["planning_seconds"] > 0.0
        assert warm.timings["planning_seconds"] < cold.plan.planning_seconds

    @pytest.mark.parametrize(
        "modes",
        [(ORDERING_STATIC, ORDERING_COST), (ORDERING_COST, ORDERING_STATIC)],
    )
    def test_cached_plans_name_no_other_calls_ordering_mode(self, session, modes):
        # The plan cache does not key on the join-ordering mode, so the
        # second call reuses the first call's plan: the plan must not name
        # a mode, and each call's stats record reports its own.
        query = cqgen.clique_query(3)
        database = cqgen.zipf_database(query, 40, 300, seed=4)
        for mode in modes:
            with forced_join_ordering(mode):
                result = session.answer(query, database)
            assert result.stats["mode"] == mode
            explained = result.plan.explain()
            for other in {ORDERING_COST, ORDERING_STATIC} - {mode}:
                assert other not in explained
        assert session.plan_cache.hits == 1

    def test_clear_cache_drops_all_session_caches(self, session):
        session.plan(cqgen.zigzag_cycle_query(4), use_core=True)
        assert len(session.plan_cache) > 0
        session.clear_cache()
        assert len(session.plan_cache) == 0
        assert len(session.core_cache) == 0
        assert session.stats()["analysis_cache"]["size"] == 0


class TestAnswerMany:
    def test_results_align_with_input_order(self, session):
        chain = cqgen.chain_query(2)
        cycle = cqgen.cycle_query(4)
        database = cqgen.grid_constraint_database(
            ConjunctiveQuery(chain.atoms + cycle.atoms), colours=3
        )
        results = session.answer_many([cycle, chain, cycle], database)
        assert len(results) == 3
        assert results[0].rows == session.answer(cycle, database).rows
        assert results[1].rows == session.answer(chain, database).rows
        # The duplicate is deduplicated (same payload, same plan) but NOT
        # aliased: it is its own result object, marked with the batch index
        # of the representative that actually executed.
        assert results[2] is not results[0]
        assert results[2].rows == results[0].rows
        assert results[2].plan is results[0].plan
        assert results[2].timings["dedup_of"] == 0

    def test_isomorphic_queries_deduplicate_without_aliasing(
        self, session, cycle_instance
    ):
        query, database = cycle_instance
        results = session.answer_many([query, renamed(query)], database)
        assert results[0] is not results[1]
        assert results[0].rows == results[1].rows
        assert session.dedup_hits == 1
        assert results[0].rows == naive_enumerate_answers(query, database)

    def test_mutating_one_result_leaves_siblings_intact(self, session, cycle_instance):
        # Regression: results of one dedup class used to be the SAME object,
        # so a caller post-processing one query's rows corrupted the others.
        query, database = cycle_instance
        expected = naive_enumerate_answers(query, database)
        results = session.answer_many(
            [query, renamed(query), renamed(query, "_s")], database
        )
        results[0].rows.clear()
        assert results[1].rows == expected
        assert results[2].rows == expected
        results[1].rows.add(("sentinel",) * len(query.free_variables))
        assert results[2].rows == expected

    def test_duplicates_do_not_rebill_execution_time(self, session, cycle_instance):
        # Regression: every duplicate used to report the representative's
        # execution_seconds as its own, double-counting any latency
        # accounting summed over a batch.
        query, database = cycle_instance
        results = session.answer_many([query, renamed(query)], database)
        representative, duplicate = results
        assert "dedup_of" not in representative.timings
        assert duplicate.timings["dedup_of"] == 0
        assert duplicate.timings["execution_seconds"] == 0.0
        assert duplicate.timings["total_seconds"] == 0.0

    def test_self_join_duplicates_still_evaluate_correctly(self, session):
        query = cqgen.zigzag_cycle_query(4, free_variables=["x0", "x1"])
        database = cqgen.random_database(query, 5, 14, seed=3)
        results = session.answer_many([query, renamed(query)], database)
        # Not recognised as isomorphic (self-joins) — but both must be right.
        assert results[0] is not results[1]
        assert results[0].rows == results[1].rows == naive_enumerate_answers(
            query, database
        )

    def test_parallel_matches_sequential(self, session):
        queries, database = workloads.mixed_batch(seed=11, copies=3, distinct=8)
        sequential = session.answer_many(queries, database, parallel=1)
        parallel = EngineSession().answer_many(queries, database, parallel=4)
        assert [r.rows for r in sequential] == [r.rows for r in parallel]

    def test_count_and_satisfiable_batches(self, session, cycle_instance):
        query, database = cycle_instance
        counts = session.count_many([query, renamed(query)], database)
        sats = session.is_satisfiable_many([query], database)
        rows = session.answer_many([query], database)[0].rows
        assert counts[0].count == len(rows)
        assert counts[0] is not counts[1]
        assert counts[0].count == counts[1].count
        assert counts[1].timings["dedup_of"] == 0
        assert sats[0].satisfiable == bool(rows)

    def test_use_core_batch_matches_plain(self, session):
        query = cqgen.zigzag_cycle_query(6)
        database = cqgen.random_database(query, 5, 14, seed=5)
        plain = session.answer_many([query], database)[0]
        semantic = session.answer_many([query], database, use_core=True)[0]
        assert plain.rows == semantic.rows
        assert semantic.strategy == "direct-yannakakis"
        assert plain.strategy != semantic.strategy

    def test_missing_relation_means_empty(self, session):
        query = cqgen.chain_query(2)
        database = cqgen.random_database(cqgen.chain_query(1), 4, 8, seed=0)
        result = session.answer_many([query], database)[0]
        assert result.rows == set()

    def test_empty_batch(self, session, cycle_instance):
        assert session.answer_many([], cycle_instance[1]) == []

    def test_parallel_validated(self, session, cycle_instance):
        query, database = cycle_instance
        with pytest.raises(ValueError, match="parallel"):
            session.answer_many([query], database, parallel=0)

    def test_non_query_rejected(self, session, cycle_instance):
        with pytest.raises(TypeError, match="ConjunctiveQuery"):
            session.answer_many(["not a query"], cycle_instance[1])

    def test_stats_shape(self, session, cycle_instance):
        query, database = cycle_instance
        session.answer_many([query, query], database)
        stats = session.stats()
        assert stats["batches"] == 1
        assert stats["dedup_hits"] == 1
        assert stats["plan_cache"]["misses"] == 1
        for key in ("analysis_cache", "core_cache", "plan_cache"):
            assert set(stats[key]) == {"size", "maxsize", "hits", "misses"}

    def test_shared_session_is_thread_safe(self, session):
        queries, database = workloads.mixed_batch(seed=2, copies=2, distinct=6)
        expected = [r.rows for r in EngineSession().answer_many(queries, database)]
        outcomes = {}

        def worker(tag):
            outcomes[tag] = session.answer_many(queries, database, parallel=2)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        for results in outcomes.values():
            assert [r.rows for r in results] == expected


class TestAnalyzeThreadSafety:
    def test_analyze_serializes_on_the_session_lock(self, session):
        # Regression: analyze once mutated the analysis cache outside the
        # session lock.
        query = cqgen.cycle_query(4)

        class TrackingLock:
            def __init__(self, inner):
                self.inner = inner
                self.entries = 0

            def __enter__(self):
                self.entries += 1
                return self.inner.__enter__()

            def __exit__(self, *exc):
                return self.inner.__exit__(*exc)

        tracking = TrackingLock(session._lock)
        session._lock = tracking
        try:
            session.analyze(query)
        finally:
            session._lock = tracking.inner
        assert tracking.entries, "analyze() never took the session lock"

    def test_concurrent_analyze_and_answer_many_stress(self, monkeypatch):
        # Hammer one session from analysis threads and batch threads at
        # once: the tiny cache forces constant LRU eviction, so an
        # unsynchronized analyze would race the planner's cache mutations.
        monkeypatch.setattr(session_module, "ANALYSIS_CACHE_SIZE", 4)
        stress = EngineSession()
        assert stress.stats()["analysis_cache"]["maxsize"] == 4
        queries, database = workloads.mixed_batch(seed=5, copies=2, distinct=8)
        analysis_targets = [
            cqgen.cycle_query(n) for n in (4, 5, 6)
        ] + [cqgen.chain_query(n) for n in (2, 3, 4)] + [cqgen.star_query(3)]
        expected = [r.rows for r in EngineSession().answer_many(queries, database)]
        errors = []
        batch_outcomes = {}

        def analyzer(tag):
            try:
                for _ in range(10):
                    for target in analysis_targets:
                        analysis = stress.analyze(target)
                        assert analysis is not None
            except Exception as exc:  # pragma: no cover - only on regression
                errors.append((tag, exc))

        def batcher(tag):
            try:
                batch_outcomes[tag] = stress.answer_many(
                    queries, database, parallel=2
                )
            except Exception as exc:  # pragma: no cover - only on regression
                errors.append((tag, exc))

        threads = [
            threading.Thread(target=analyzer, args=(f"a{i}",)) for i in range(3)
        ] + [threading.Thread(target=batcher, args=(f"b{i}",)) for i in range(3)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        for results in batch_outcomes.values():
            assert [r.rows for r in results] == expected


class TestShardedExecution:
    def test_sharded_answer_count_satisfiable_agree(self, session):
        query = cqgen.hub_cycle_query(4)
        database = cqgen.random_database(query, 8, 60, seed=9)
        expected = naive_enumerate_answers(query, database)
        for shards in (1, 2, 4, 8):
            result = session.answer(query, database, shards=shards)
            assert result.rows == expected
            assert session.count(query, database, shards=shards).count == len(expected)
            assert session.is_satisfiable(
                query, database, shards=shards
            ).satisfiable == bool(expected)

    def test_sharded_timings_and_rationale_record_the_mode(self, session):
        query = cqgen.hub_cycle_query(4)
        database = cqgen.random_database(query, 8, 60, seed=9)
        result = session.answer(query, database, shards=4)
        record = result.sharding
        assert record["mode"] == "co-partitioned"
        assert record["shard_variable"] == "h"
        assert record["shards"] == 4
        assert len(record["per_shard_seconds"]) == 4
        assert record["broadcast_relations"] == []
        assert record["rationale"].startswith("every atom contains")
        # The result carries the cached plan as it is, with no sharding note.
        plan = session.plan(canonical_form(query)[0])
        assert result.plan is plan
        assert "every atom contains" not in plan.rationale

    def test_broadcast_fallback_records_replicated_relations(self, session):
        query = cqgen.cycle_query(5)
        database = cqgen.random_database(query, 8, 40, seed=4)
        result = session.answer(query, database, shards=4, shard_variable="x0")
        assert result.rows == naive_enumerate_answers(query, database)
        record = result.sharding
        assert record["mode"] == "broadcast"
        assert set(record["broadcast_relations"]) == {"R1", "R2", "R3"}

    def test_existential_shard_variable_counts_via_union(self, session):
        query = cqgen.hub_cycle_query(4).as_boolean()
        database = cqgen.random_database(query, 8, 60, seed=9)
        result = session.count(query, database, shards=4)
        assert result.count == naive_count_answers(query, database)
        assert result.sharding["count_via"] == "union"
        free = cqgen.hub_cycle_query(4)
        full = session.count(free, database, shards=4)
        assert full.sharding["count_via"] == "sum"
        assert full.count == naive_count_answers(free, database)

    def test_unshardable_queries_fall_back_to_single_shard(self, session):
        no_atoms = ConjunctiveQuery([])
        database = Database()
        result = session.answer(no_atoms, database, shards=4)
        assert result.rows == {()}
        assert result.sharding["mode"] == "single-shard"
        assert result.sharding["shards"] == 1

    def test_unknown_shard_variable_rejected(self, session):
        query = cqgen.hub_cycle_query(4)
        database = cqgen.random_database(query, 5, 10, seed=0)
        with pytest.raises(ValueError, match="does not occur"):
            session.answer(query, database, shards=2, shard_variable="nope")
        with pytest.raises(ValueError, match="shards"):
            session.answer(query, database, shards=0)

    def test_sharded_missing_relation_is_empty(self, session):
        query = cqgen.hub_cycle_query(4)
        database = cqgen.random_database(cqgen.hub_cycle_query(3), 5, 10, seed=0)
        result = session.answer(query, database, shards=4)
        assert result.rows == set()
        assert session.is_satisfiable(query, database, shards=4).satisfiable is False

    def test_sharded_use_core_matches_plain(self, session):
        query = cqgen.zigzag_cycle_query(6, free_variables=["x0", "x1"])
        database = cqgen.random_database(query, 5, 14, seed=5)
        expected = naive_enumerate_answers(query, database)
        result = session.answer(query, database, shards=4, use_core=True)
        assert result.rows == expected
        # An explicitly requested variable the core folds away degrades to
        # single-shard instead of raising.
        folded = session.answer(
            query, database, shards=4, use_core=True, shard_variable="x3"
        )
        assert folded.rows == expected
        assert folded.sharding["mode"] == "single-shard"

    def test_renamed_variants_share_one_cut(self, session, monkeypatch):
        # The pieces depend on the shard count, the partition columns and
        # the broadcast set only, so a renamed query (another shard
        # variable name, the same columns) reuses the first query's cut.
        from repro.engine.sharding import ShardedDatabase

        query = cqgen.hub_cycle_query(3)
        variant = renamed(query)
        database = cqgen.random_database(query, 6, 40, seed=3)
        partition = ShardedDatabase.partition.__func__
        cuts: list = []

        def counted(cls, *args, **kwargs):
            cuts.append(args)
            return partition(cls, *args, **kwargs)

        monkeypatch.setattr(ShardedDatabase, "partition", classmethod(counted))
        for candidate in (query, variant):
            result = session.count(candidate, database, shards=2)
            assert result.count == naive_count_answers(candidate, database)
            assert result.sharding["mode"] == "co-partitioned"
        assert len(cuts) == 1

    def test_sharded_with_prebuilt_plan(self, session):
        query = cqgen.hub_cycle_query(4)
        database = cqgen.random_database(query, 8, 40, seed=2)
        plan = session.plan(query)
        result = session.answer(query, database, plan=plan, shards=4)
        assert result.rows == naive_enumerate_answers(query, database)
        with pytest.raises(ValueError, match="use_core"):
            session.answer(query, database, plan=plan, use_core=True, shards=4)


class TestDefaultSession:
    def test_module_api_delegates_to_default_session(self, cycle_instance):
        query, database = cycle_instance
        session = default_session()
        before = session.stats()["plan_cache"]
        engine_module.answer(query, database)
        engine_module.count(query, database)
        after = session.stats()["plan_cache"]
        assert default_session() is session
        assert after["hits"] + after["misses"] == before["hits"] + before["misses"] + 2

    def test_answer_many_module_level(self, cycle_instance):
        query, database = cycle_instance
        batches = default_session().batches
        results = answer_many([query, query], database)
        assert results[0].rows == results[1].rows
        assert results[1].timings["dedup_of"] == 0
        assert default_session().batches == batches + 1


class TestAtomArity:
    """An atom whose term count differs from its stored relation's arity is
    refused with a ``ValueError`` on every path; a relation without rows
    answers empty at any arity."""

    MISMATCHED = [("x", "y", "z"), ("x",)]

    @pytest.fixture
    def database(self):
        return Database([Relation("R", 2, {(1, 2), (2, 3)})])

    @pytest.mark.parametrize("shards", [1, 2])
    @pytest.mark.parametrize("terms", MISMATCHED, ids=["long", "short"])
    def test_calls_refuse_a_mismatched_atom(self, session, database, terms, shards):
        query = ConjunctiveQuery([Atom("R", terms)])
        for call in (session.answer, session.count, session.is_satisfiable):
            with pytest.raises(ValueError, match=r"R\(x.*has arity 2"):
                call(query, database, shards=shards)

    @pytest.mark.parametrize("terms", MISMATCHED, ids=["long", "short"])
    def test_batches_and_standing_views_refuse_a_mismatched_atom(
        self, session, database, terms
    ):
        query = ConjunctiveQuery([Atom("R", terms)])
        with pytest.raises(ValueError, match="has arity 2"):
            session.answer_many([query], database)
        with pytest.raises(ValueError, match="has arity 2"):
            session.incremental_view(query, database).refresh()

    def test_process_workers_refuse_a_mismatched_atom(self, session, database):
        runtime = ProcessRuntime(max_workers=1)
        try:
            for terms in self.MISMATCHED:
                query = ConjunctiveQuery([Atom("R", terms)])
                with pytest.raises(ValueError, match="has arity 2"):
                    session.answer_many([query, query], database, runtime=runtime)
        finally:
            runtime.close()

    def test_a_relation_without_rows_answers_empty(self, session):
        # An inline JSON relation ``"R": []`` gets arity 0.
        database = Database([Relation("R", 0), Relation("S", 2, {(1, 2)})])
        for atoms in (
            [Atom("R", ["x", "y"])],
            [Atom("R", ["x", "y", "z"]), Atom("R", ["x"])],
            [Atom("R", [Constant(1)])],
            [Atom("R", ["x", "y"]), Atom("S", ["x", "y"])],
        ):
            query = ConjunctiveQuery(atoms)
            for shards in (1, 2):
                assert session.answer(query, database, shards=shards).rows == set()
                assert session.count(query, database, shards=shards).count == 0
            assert session.incremental_view(query, database).refresh().rows == set()
