"""Planner dispatch: the right strategy for the certified structure, and
observational equivalence of ``answer()`` with the naive reference solver on
randomized acyclic and cyclic instances."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cq import Atom, ConjunctiveQuery
from repro.cq import generators as cqgen
from repro.cq.homomorphism import _solve_naive
from repro.engine import planner as planner_module
from repro.engine import (
    EngineSession,
    STRATEGY_BACKTRACKING,
    STRATEGY_GHD,
    STRATEGY_TRIVIAL,
    STRATEGY_YANNAKAKIS,
)


def naive_answers(query, database):
    """Ground truth through the naive linear-scan solver."""
    if not query.atoms:
        return {()}
    free = query.free_variables
    return {tuple(solution[v] for v in free) for solution in _solve_naive(query, database)}


@pytest.fixture
def engine():
    return EngineSession()


class TestDispatch:
    def test_empty_query_is_trivial(self, engine):
        plan = engine.plan(ConjunctiveQuery([]))
        assert plan.strategy == STRATEGY_TRIVIAL

    @pytest.mark.parametrize(
        "query",
        [cqgen.chain_query(4), cqgen.star_query(3), cqgen.chain_query(2, arity=3)],
        ids=["chain4", "star3", "chain2-arity3"],
    )
    def test_acyclic_gets_direct_yannakakis(self, engine, query):
        plan = engine.plan(query)
        assert plan.strategy == STRATEGY_YANNAKAKIS
        assert plan.width == 1
        assert plan.decomposition is not None
        assert plan.decomposition.is_valid_for(query.hypergraph())
        # The load-bearing property: planning an acyclic query never invoked
        # the decomposition search.
        assert plan.analysis.searched_decomposition is False

    @pytest.mark.parametrize("length", [3, 5, 6])
    def test_bounded_ghw_cycle_gets_ghd(self, engine, length):
        query = cqgen.cycle_query(length)
        plan = engine.plan(query)
        assert plan.strategy == STRATEGY_GHD
        assert plan.width == 2
        assert plan.decomposition.is_valid_for(query.hypergraph())

    def test_high_width_falls_back_to_backtracking(self, engine):
        # The 4x4 jigsaw has ghw >= 4, beyond the default width limit of 3.
        plan = engine.plan(cqgen.jigsaw_query(4, 4))
        assert plan.strategy == STRATEGY_BACKTRACKING
        assert plan.decomposition is None
        assert "fallback" in plan.rationale

    def test_width_limit_bounds_ghd_dispatch(self, monkeypatch):
        # The 4-cycle's certified ghw is 2: under a width limit of 1 its
        # decomposition exists but is too wide, so the planner falls back.
        monkeypatch.setattr(planner_module, "DEFAULT_MAX_GHD_WIDTH", 1)
        plan = EngineSession().plan(cqgen.cycle_query(4))
        assert plan.strategy == STRATEGY_BACKTRACKING
        assert plan.decomposition is None
        assert "width limit 1" in plan.rationale

    def test_constant_only_query_gets_honest_rationale(self, engine):
        from repro.cq.query import Constant

        plan = engine.plan(ConjunctiveQuery([Atom("C", [Constant(1)])]))
        assert plan.strategy == STRATEGY_BACKTRACKING
        assert plan.analysis.is_acyclic is True
        assert "constant-only" in plan.rationale
        assert plan.analysis.searched_decomposition is False

    def test_explain_mentions_strategy_and_rationale(self, engine):
        plan = engine.plan(cqgen.cycle_query(4))
        text = plan.explain()
        assert STRATEGY_GHD in text
        assert "Prop. 2.2" in text


class TestSemanticPlanning:
    def zigzag_cycle(self):
        """Cyclic syntax, trivial core: the Theorem 4.12 showpiece."""
        return ConjunctiveQuery(
            [
                Atom("E", ["x0", "x1"]),
                Atom("E", ["x2", "x1"]),
                Atom("E", ["x2", "x3"]),
                Atom("E", ["x0", "x3"]),
            ],
            free_variables=[],
        )

    def test_core_turns_cyclic_into_acyclic(self, engine):
        query = self.zigzag_cycle()
        raw = engine.plan(query)
        semantic = engine.plan(query, use_core=True)
        assert raw.strategy == STRATEGY_GHD
        assert semantic.strategy == STRATEGY_YANNAKAKIS
        assert len(semantic.query.atoms) == 1
        assert "core" in semantic.rationale

    def test_core_preserves_answers(self, engine):
        query = self.zigzag_cycle()
        database = cqgen.planted_database(query, 3, 6, seed=5)
        direct = engine.is_satisfiable(query, database)
        semantic = engine.is_satisfiable(query, database, use_core=True)
        assert direct.satisfiable == semantic.satisfiable

    def test_core_cache_respects_free_variable_order(self, engine):
        # Same atoms, reordered head: a cache hit across the two would hand
        # back answer tuples in the wrong column order.
        atoms = [
            Atom("E", ["x0", "x1"]),
            Atom("E", ["x2", "x1"]),
            Atom("E", ["x2", "x3"]),
            Atom("E", ["x0", "x3"]),
        ]
        first = ConjunctiveQuery(atoms, free_variables=["x0", "x1"])
        second = ConjunctiveQuery(atoms, free_variables=["x1", "x0"])
        database = cqgen.planted_database(first, 3, 6, seed=5)
        rows_first = engine.answer(first, database, use_core=True).rows
        rows_second = engine.answer(second, database, use_core=True).rows
        assert rows_second == {(b, a) for (a, b) in rows_first}
        assert rows_second == engine.answer(second, database).rows


class TestForcedStrategy:
    def test_force_backtracking(self, engine):
        plan = engine.plan(cqgen.chain_query(3), force_strategy=STRATEGY_BACKTRACKING)
        assert plan.strategy == STRATEGY_BACKTRACKING
        assert "forced" in plan.rationale

    def test_force_yannakakis_on_cyclic_rejected(self, engine):
        with pytest.raises(ValueError):
            engine.plan(cqgen.cycle_query(4), force_strategy=STRATEGY_YANNAKAKIS)

    def test_force_ghd_on_acyclic_uses_join_tree(self, engine):
        plan = engine.plan(cqgen.chain_query(3), force_strategy=STRATEGY_GHD)
        assert plan.strategy == STRATEGY_GHD
        assert plan.width == 1

    def test_unknown_strategy_rejected(self, engine):
        with pytest.raises(ValueError):
            engine.plan(cqgen.chain_query(3), force_strategy="quantum")

    def test_force_trivial_on_nonempty_query_rejected(self, engine):
        with pytest.raises(ValueError, match="atom-less"):
            engine.plan(cqgen.chain_query(3), force_strategy=STRATEGY_TRIVIAL)


# ----------------------------------------------------------------------
# Property: engine results == naive solver, with the expected dispatch.
# ----------------------------------------------------------------------
@st.composite
def planner_instance(draw):
    """A random acyclic or cyclic instance, tagged with its expected strategy."""
    kind = draw(st.sampled_from(["chain", "star", "cycle", "jigsaw"]))
    if kind == "chain":
        query, expected = cqgen.chain_query(draw(st.integers(2, 4))), STRATEGY_YANNAKAKIS
    elif kind == "star":
        query, expected = cqgen.star_query(draw(st.integers(2, 4))), STRATEGY_YANNAKAKIS
    elif kind == "cycle":
        query, expected = cqgen.cycle_query(draw(st.integers(3, 5))), STRATEGY_GHD
    else:
        query, expected = cqgen.jigsaw_query(2, 2), None  # width-dependent
    seed = draw(st.integers(0, 10_000))
    if draw(st.booleans()):
        database = cqgen.planted_database(query, 3, draw(st.integers(2, 6)), seed=seed)
    else:
        database = cqgen.random_database(query, 3, draw(st.integers(2, 6)), seed=seed)
    boolean = draw(st.booleans())
    if boolean:
        query = query.as_boolean()
    return query, database, expected


@given(planner_instance())
@settings(max_examples=40, deadline=None)
def test_engine_matches_naive_solver(instance):
    query, database, expected = instance
    engine = EngineSession()
    expected_rows = naive_answers(query, database)

    result = engine.answer(query, database)
    assert result.rows == expected_rows
    if expected is not None:
        assert result.strategy == expected
    if expected == STRATEGY_YANNAKAKIS:
        assert result.plan.analysis.searched_decomposition is False

    assert engine.is_satisfiable(query, database).satisfiable == bool(expected_rows)
    assert engine.count(query, database).count == len(expected_rows)
