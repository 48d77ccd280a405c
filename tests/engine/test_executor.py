"""The executor layer: uniform EvalResult, plan reuse, missing relations,
counting semantics, and the fixed strategy-to-backend table."""

import pytest

import repro
from repro.cq import Atom, ConjunctiveQuery, Database
from repro.cq import generators as cqgen
from repro.cq.homomorphism import (
    count_answers,
    naive_count_answers,
    naive_enumerate_answers,
)
from repro.cq.query import Constant
from repro.engine import (
    EngineSession,
    EvaluationBackend,
    Plan,
    backend_for,
)
from repro.engine.backends import BACKENDS


@pytest.fixture
def engine():
    return EngineSession()


@pytest.fixture
def cycle_instance():
    query = cqgen.cycle_query(4)
    return query, cqgen.grid_constraint_database(query, colours=3)


class TestEvalResult:
    def test_answer_result_shape(self, engine, cycle_instance):
        query, database = cycle_instance
        result = engine.answer(query, database)
        assert result.task == "answer"
        assert result.value is result.rows
        assert result.satisfiable is None and result.count is None
        assert result.plan is not None
        assert result.strategy == result.plan.strategy
        for key in ("planning_seconds", "execution_seconds", "total_seconds"):
            assert result.timings[key] >= 0.0

    def test_satisfiable_result_shape(self, engine, cycle_instance):
        query, database = cycle_instance
        result = engine.is_satisfiable(query, database)
        assert result.task == "satisfiable"
        assert result.value is result.satisfiable
        assert isinstance(result.satisfiable, bool)

    def test_count_result_shape(self, engine, cycle_instance):
        query, database = cycle_instance
        result = engine.count(query, database)
        assert result.task == "count"
        assert result.value == result.count == count_answers(query, database)


class TestPlanReuse:
    def test_explicit_plan_is_used_verbatim(self, engine, cycle_instance):
        query, database = cycle_instance
        plan = engine.plan(query)
        result = engine.answer(query, database, plan=plan)
        assert result.plan is plan

    def test_plan_once_execute_many(self, engine, cycle_instance):
        query, database = cycle_instance
        plan = engine.plan(query)
        first = engine.answer(query, database, plan=plan)
        second = engine.count(query, database, plan=plan)
        assert second.count == len(first.rows)

    def test_plan_for_different_query_rejected(self, engine, cycle_instance):
        query, database = cycle_instance
        plan = engine.plan(cqgen.chain_query(3))
        with pytest.raises(ValueError, match="different query"):
            engine.answer(query, database, plan=plan)

    @pytest.mark.parametrize("shards", [1, 2])
    @pytest.mark.parametrize("method", ["answer", "count", "is_satisfiable"])
    def test_plan_with_use_core_rejected(self, engine, cycle_instance, method, shards):
        # One check guards the unsharded and the sharded path of every task.
        query, database = cycle_instance
        plan = engine.plan(query)
        with pytest.raises(ValueError, match="use_core applies at planning time"):
            getattr(engine, method)(
                query, database, plan=plan, use_core=True, shards=shards
            )

    def test_plan_for_reordered_projection_rejected(self, engine):
        # Same atoms, same free-variable *set*, different order: answer
        # tuples would come back in the stale column order.
        query = cqgen.chain_query(3).project(["x0", "x1"])
        reordered = cqgen.chain_query(3).project(["x1", "x0"])
        database = cqgen.planted_database(query, 3, 6, seed=1)
        plan = engine.plan(query)
        with pytest.raises(ValueError, match="different query"):
            engine.answer(reordered, database, plan=plan)

    def test_reused_plan_not_rebilled_for_planning(self, engine, cycle_instance):
        query, database = cycle_instance
        plan = engine.plan(query)
        result = engine.answer(query, database, plan=plan)
        # No planning ran on this call; the one-off cost stays on the plan.
        assert result.timings["planning_seconds"] == 0.0
        assert result.timings["total_seconds"] == result.timings["execution_seconds"]
        assert plan.planning_seconds > 0.0


class TestEdgeCases:
    def test_empty_query(self, engine):
        query = ConjunctiveQuery([])
        database = Database()
        assert engine.is_satisfiable(query, database).satisfiable is True
        assert engine.answer(query, database).rows == {()}
        assert engine.count(query, database).count == 1

    def test_missing_relation_means_no_answers(self, engine):
        query = ConjunctiveQuery([Atom("R", ["x", "y"]), Atom("Missing", ["y", "z"])])
        database = cqgen.random_database(
            ConjunctiveQuery([Atom("R", ["x", "y"])]), 3, 5, seed=0
        )
        assert engine.is_satisfiable(query, database).satisfiable is False
        assert engine.answer(query, database).rows == set()
        assert engine.count(query, database).count == 0

    def test_boolean_query_counts_zero_or_one(self, engine, cycle_instance):
        query, database = cycle_instance
        boolean = query.as_boolean()
        assert engine.count(boolean, database).count == 1
        empty = cqgen.unsatisfiable_database(query, 3, 5, seed=0)
        assert engine.count(boolean, empty).count == 0

    def test_projected_count_counts_distinct_projections(self, engine):
        query = cqgen.chain_query(3).project(["x0", "x1"])
        database = cqgen.planted_database(query, 3, 8, seed=3)
        result = engine.count(query, database)
        assert result.count == count_answers(query, database)
        assert result.count == len(engine.answer(query, database).rows)


class TestTrivialEdgeCases:
    """Pin the missing-relation fast path's exemptions: the zero-atom query
    and constants-only atoms.  The fast path (`EngineSession._run`) must never
    short-circuit the empty conjunction — it mentions no relation, so it is
    trivially satisfiable with the single empty-tuple answer on ANY database
    — and constants-only atoms must take the normal path, where the backend
    checks the facts.  All three task semantics have to agree with each
    other, with the naive reference, and under every forceable strategy."""

    def _assert_tasks_agree(self, engine, query, database, expected_rows):
        assert engine.answer(query, database).rows == expected_rows
        assert engine.count(query, database).count == len(expected_rows)
        assert engine.is_satisfiable(query, database).satisfiable == bool(
            expected_rows
        )
        assert naive_enumerate_answers(query, database) == expected_rows
        assert naive_count_answers(query, database) == len(expected_rows)

    def _forceable_strategies(self, engine, query):
        plans = []
        for strategy in sorted(BACKENDS):
            try:
                plans.append(engine.plan(query, force_strategy=strategy))
            except ValueError:
                continue
        return plans

    def test_empty_body_query_on_any_database(self, engine):
        query = ConjunctiveQuery([])
        for database in (Database(), cqgen.random_database(cqgen.chain_query(2), 4, 8)):
            self._assert_tasks_agree(engine, query, database, {()})

    def test_empty_body_query_only_forces_trivial(self, engine):
        query = ConjunctiveQuery([])
        plans = self._forceable_strategies(engine, query)
        assert [plan.strategy for plan in plans] == ["trivial"]
        database = Database()
        for plan in plans:
            assert engine.answer(query, database, plan=plan).rows == {()}
            assert engine.count(query, database, plan=plan).count == 1
            assert engine.is_satisfiable(query, database, plan=plan).satisfiable

    def test_constants_only_query_fact_present(self, engine):
        database = Database()
        database.add_fact("R", (1, 2))
        query = ConjunctiveQuery([Atom("R", [Constant(1), Constant(2)])])
        self._assert_tasks_agree(engine, query, database, {()})
        for plan in self._forceable_strategies(engine, query):
            assert engine.answer(query, database, plan=plan).rows == {()}
            assert engine.count(query, database, plan=plan).count == 1

    def test_constants_only_query_fact_absent(self, engine):
        database = Database()
        database.add_fact("R", (1, 2))
        query = ConjunctiveQuery([Atom("R", [Constant(2), Constant(1)])])
        self._assert_tasks_agree(engine, query, database, set())
        for plan in self._forceable_strategies(engine, query):
            assert engine.answer(query, database, plan=plan).rows == set()
            assert engine.count(query, database, plan=plan).count == 0
            assert not engine.is_satisfiable(query, database, plan=plan).satisfiable

    def test_constants_only_query_missing_relation(self, engine):
        database = Database()
        database.add_fact("R", (1, 2))
        query = ConjunctiveQuery([Atom("S", [Constant(1)])])
        self._assert_tasks_agree(engine, query, database, set())

    def test_mixed_constants_and_variables_with_missing_relation(self, engine):
        database = Database()
        database.add_fact("R", (1, 2))
        query = ConjunctiveQuery(
            [Atom("R", ["x", "y"]), Atom("S", [Constant(1)])]
        )
        self._assert_tasks_agree(engine, query, database, set())

    def test_zero_atom_query_through_the_batch_and_sharded_paths(self):
        from repro.engine import EngineSession

        session = EngineSession()
        query = ConjunctiveQuery([])
        database = Database()
        batch = session.answer_many([query, query], database)
        assert [result.rows for result in batch] == [{()}, {()}]
        sharded = session.answer(query, database, shards=4)
        assert sharded.rows == {()}
        assert session.count(query, database, shards=4).count == 1
        assert session.is_satisfiable(query, database, shards=4).satisfiable


class TestPublicSurface:
    def test_top_level_reexports(self, cycle_instance):
        query, database = cycle_instance
        assert repro.answer(query, database).rows == repro.engine.answer(query, database).rows
        assert repro.is_satisfiable(query, database).satisfiable is True
        assert repro.count(query, database).count > 0
        assert repro.plan_query(query).strategy == "ghd-guided"

    def test_cq_reexports(self, cycle_instance):
        from repro import cq

        query, database = cycle_instance
        assert cq.answer(query, database).rows == repro.answer(query, database).rows


class TestBackendTable:
    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError, match="no backend for strategy"):
            backend_for("nonexistent-strategy")

    def test_custom_backend_dispatch(self, engine, cycle_instance, monkeypatch):
        query, database = cycle_instance

        class EchoBackend(EvaluationBackend):
            name = "echo-test"

            def boolean(self, query, database, plan):
                return True

            def answers(self, query, database, plan):
                return {("echo",)}

            def count(self, query, database, plan):
                return 42

        monkeypatch.setitem(BACKENDS, "echo-test", EchoBackend())
        plan = Plan(
            strategy="echo-test",
            query=query,
            analysis=None,
            decomposition=None,
            width=None,
            rationale="test backend",
        )
        assert engine.answer(query, database, plan=plan).rows == {("echo",)}
        assert engine.count(query, database, plan=plan).count == 42
