"""Tests for the CQ solvers: backtracking baseline, Yannakakis, GHD-guided.

The key invariant exercised throughout: every evaluator agrees with the
generic backtracking solver on answers, Boolean answers, and counts.
"""

import random

import pytest

from repro.cq import (
    Atom,
    ConjunctiveQuery,
    Database,
    boolean_answer,
    count_answers,
    decomposition_boolean_answer,
    decomposition_count_answers,
    decomposition_enumerate_answers,
    enumerate_answers,
)
from repro.cq import columnar
from repro.cq import generators as cqgen
from repro.cq.bags import root_tree
from repro.cq.columnar import (
    _VECTOR_MIN_ROWS,
    BagArray,
    ColumnarRelation,
    ValueInterner,
    build_columnar_bag_tree,
    columnar_count_join_tree,
    columnar_enumerate_answers,
)
from repro.cq.database import Relation
from repro.cq.decomposition_eval import DecompositionMismatchError
from repro.cq.homomorphism import naive_count_answers, naive_enumerate_answers
from repro.cq.relational import NamedRelation
from repro.cq.yannakakis import (
    JoinTree,
    pruned_tree,
    semijoin_reduce,
    yannakakis_boolean,
    yannakakis_full,
)
from repro.engine import EngineSession
from repro.widths.ghd import GeneralizedHypertreeDecomposition
from repro.widths.ghw import ghw_upper_bound
from repro.widths.tree_decomposition import TreeDecomposition


def small_path_instance():
    query = cqgen.chain_query(3)
    database = Database()
    for a in range(3):
        for b in range(3):
            if a != b:
                database.add_fact("R0", (a, b))
                database.add_fact("R1", (a, b))
                database.add_fact("R2", (a, b))
    return query, database


KERNELS = ("columnar", "numpy", "bag-array")


@pytest.fixture
def kernel(request, monkeypatch):
    """One of :data:`KERNELS`, passed with ``indirect=True``.  ``numpy`` is
    the columnar kernel with ``_VECTOR_MIN_ROWS`` at 0, so every join,
    semijoin and projection takes its NumPy path however few rows the
    hand-built cases hold."""
    if request.param == "numpy":
        monkeypatch.setattr(columnar, "_VECTOR_MIN_ROWS", 0)
    return request.param


def _in_kernel(relations: dict, kernel: str) -> dict:
    """The named relations in one kernel's form.  Bag arrays give each
    column one axis size across the tree, its largest id bound in any
    relation."""
    interner = ValueInterner()
    rows = {
        node: ColumnarRelation.from_named(relation, interner)
        for node, relation in relations.items()
    }
    if kernel != "bag-array":
        return rows
    sizes: dict = {}
    for relation in rows.values():
        for column, bound in zip(relation.columns, relation._id_bounds()):
            sizes[column] = max(bound, sizes.get(column, 0))
    return {
        node: BagArray.from_pool([relation], relation.columns, sizes, interner)
        for node, relation in rows.items()
    }


def _columns(relations: dict) -> tuple:
    return tuple(dict.fromkeys(c for r in relations.values() for c in r.columns))


def brute_force_join(relations: dict, output) -> set:
    """π_output of the natural join of every relation, one relation at a
    time: each partial assignment is extended by every row agreeing with it
    on the columns already bound."""
    assignments = [{}]
    bound: set = set()
    for relation in relations.values():
        shared = [c for c in relation.columns if c in bound]
        rows_by_key: dict = {}
        for row in relation.rows:
            binding = dict(zip(relation.columns, row))
            rows_by_key.setdefault(tuple(binding[c] for c in shared), []).append(binding)
        assignments = [
            {**assignment, **binding}
            for assignment in assignments
            for binding in rows_by_key.get(tuple(assignment[c] for c in shared), ())
        ]
        bound.update(relation.columns)
    return {tuple(a[c] for c in output) for a in assignments}


def _spy_relational_calls(monkeypatch) -> dict:
    """Record ``(self.columns, other.columns)`` of every join and semijoin
    any kernel runs."""
    calls = {"natural_join": [], "semijoin": []}
    for owner in (ColumnarRelation, BagArray):
        for name, seen in calls.items():
            original = getattr(owner, name)

            def spied(self, other, _original=original, _seen=seen):
                _seen.append((self.columns, other.columns))
                return _original(self, other)

            monkeypatch.setattr(owner, name, spied)
    return calls


_R = NamedRelation
#: case -> (relations, parent map, output columns or None, nodes of T_F).
#: Every relation holds rows that join nothing, so a pass that skips a
#: filter it needs shows in the answer.
PRUNING_CASES = {
    # F fits the root: no downward pass, no join.
    "free-in-root": (
        {
            "r": _R(("x", "y"), {(1, 2), (2, 3), (3, 4), (4, 2)}),
            "a": _R(("y", "z"), {(2, 5), (3, 6), (4, 6), (9, 9)}),
            "b": _R(("y", "w"), {(2, 7), (3, 8), (8, 8)}),
        },
        {"r": None, "a": "r", "b": "r"},
        ("y", "x"),
        {"r"},
    ),
    # The star centre is in every bag, so no node adds a free variable.
    "star": (
        {
            "r": _R(("c", "x0"), {(1, 1), (2, 1), (3, 2), (4, 2)}),
            "a": _R(("c", "x1"), {(1, 5), (2, 6), (3, 6)}),
            "b": _R(("c", "x2"), {(1, 7), (3, 8), (5, 8)}),
            "d": _R(("c", "x3"), {(1, 0), (2, 0), (3, 0)}),
        },
        {"r": None, "a": "r", "b": "a", "d": "a"},
        ("c",),
        {"r"},
    ),
    # root ⊊ T_F ⊊ tree: z enters at m; l and s only filter.
    "partial": (
        {
            "r": _R(("x", "y"), {(1, 1), (1, 2), (2, 2), (3, 3), (4, 1)}),
            "m": _R(("y", "z"), {(1, 10), (1, 11), (2, 12), (3, 13), (5, 14)}),
            "l": _R(("z", "w"), {(10, 0), (12, 0), (13, 1), (99, 1)}),
            "s": _R(("x", "u"), {(1, 0), (2, 0), (3, 0), (7, 0)}),
        },
        {"r": None, "m": "r", "l": "m", "s": "r"},
        ("x", "z"),
        {"r", "m"},
    ),
    # A subtree without free variables whose dangling rows filter the root
    # two levels up (x = 3 and 4 reach no row of g).
    "dangling": (
        {
            "r": _R(("x", "y"), {(1, 1), (2, 2), (3, 3), (4, 4)}),
            "c": _R(("y", "z"), {(1, 5), (2, 6), (3, 7), (4, 8)}),
            "g": _R(("z",), {(5,), (6,), (9,)}),
        },
        {"r": None, "c": "r", "g": "c"},
        ("x",),
        {"r"},
    ),
    # A subtree without free variables holding an empty relation.
    "empty-filter": (
        {
            "r": _R(("x", "y"), {(1, 1), (2, 2)}),
            "c": _R(("y", "z"), {(1, 5), (2, 6)}),
            "g": _R(("z", "w"), set()),
        },
        {"r": None, "c": "r", "g": "c"},
        ("x",),
        {"r"},
    ),
    # Full output: a node whose columns all occur in its parent only
    # filters, even when every column is output.
    "full-output": (
        {
            "r": _R(("x", "y", "z"), {(1, 1, 1), (2, 1, 2), (3, 2, 2), (4, 3, 3)}),
            "sub": _R(("y", "z"), {(1, 1), (2, 2), (3, 9)}),
            "w": _R(("z", "w"), {(1, 7), (2, 8), (2, 9), (5, 5)}),
        },
        {"r": None, "sub": "r", "w": "r"},
        None,
        {"r", "w"},
    ),
}


class TestBacktrackingSolver:
    def test_empty_query_is_true(self):
        assert boolean_answer(ConjunctiveQuery([]), Database())

    def test_missing_relation_means_false(self):
        query = cqgen.chain_query(2)
        assert not boolean_answer(query, Database())

    def test_path_instance_counts(self):
        query, database = small_path_instance()
        # Walks of length 3 in the complete digraph without loops on 3 nodes.
        assert count_answers(query, database) == 3 * 2 * 2 * 2

    def test_enumerate_respects_free_variables(self):
        query, database = small_path_instance()
        projected = query.project(["x0", "x3"])
        answers = enumerate_answers(projected, database)
        assert all(len(row) == 2 for row in answers)
        assert answers == {
            (row[0], row[3]) for row in enumerate_answers(query, database)
        }

    def test_boolean_projection(self):
        query, database = small_path_instance()
        assert enumerate_answers(query.as_boolean(), database) == {()}

    def test_planted_database_is_satisfiable(self):
        query = cqgen.jigsaw_query(2, 2)
        database = cqgen.planted_database(query, 4, 6, seed=11)
        assert boolean_answer(query, database)

    def test_unsatisfiable_database(self):
        query = cqgen.cycle_query(4)
        database = cqgen.unsatisfiable_database(query, 4, 10, seed=2)
        assert not boolean_answer(query, database)

    def test_proper_colouring_counts_on_cycles(self):
        # Proper q-colourings of the cycle C_n: (q-1)^n + (-1)^n (q-1).
        for n, q in [(3, 3), (4, 3), (5, 2)]:
            query = cqgen.cycle_query(n)
            database = cqgen.grid_constraint_database(query, colours=q)
            expected = (q - 1) ** n + (-1) ** n * (q - 1)
            assert count_answers(query, database) == expected


class TestYannakakis:
    RELATIONS = {
        "top": _R(("x", "y"), {(1, 2), (2, 3)}),
        "left": _R(("y", "z"), {(2, 5), (3, 6)}),
        "right": _R(("y", "w"), {(2, 7)}),
    }

    def _tree(self, kernel="columnar"):
        parent = {"top": None, "left": "top", "right": "top"}
        return JoinTree(_in_kernel(self.RELATIONS, kernel), parent)

    def test_join_tree_requires_single_root(self):
        with pytest.raises(ValueError):
            JoinTree({"a": _R(("x",), set())}, {"a": "a"})

    def test_boolean_answer(self):
        assert yannakakis_boolean(self._tree())

    def test_boolean_false_when_branch_empty(self):
        tree = self._tree()
        tree.relations["right"] = ColumnarRelation.from_named(
            _R(("y", "w"), set()), tree.relations["top"].interner
        )
        assert not yannakakis_boolean(tree)

    def test_full_enumeration_matches_naive_join(self):
        full = yannakakis_full(self._tree())
        assert set(full.columns) == {"x", "y", "z", "w"}
        assert full.decode_rows() == brute_force_join(self.RELATIONS, full.columns)
        assert len(full) == 1

    def test_projection_output(self):
        result = yannakakis_full(self._tree(), output_columns=("x",))
        assert result.decode_rows() == {(1,)}

    def test_counting_dp_matches_naive(self):
        expected = brute_force_join(self.RELATIONS, _columns(self.RELATIONS))
        assert columnar_count_join_tree(self._tree()) == len(expected) == 1

    # ------------------------------------------------------------------
    # The pruned tree T_F: after the upward pass, only the root, the nodes
    # adding an output column and their ancestors are joined.
    # ------------------------------------------------------------------
    @pytest.mark.parametrize("kernel", KERNELS, indirect=True)
    @pytest.mark.parametrize("case", sorted(PRUNING_CASES))
    def test_pruned_answers_match_brute_force(self, case, kernel):
        relations, parent, output, expected_nodes = PRUNING_CASES[case]
        tree = JoinTree(_in_kernel(relations, kernel), parent)
        assert set(pruned_tree(tree, output or _columns(relations))) == expected_nodes
        result = yannakakis_full(tree, output_columns=output)
        columns = output or _columns(relations)
        assert result.columns == tuple(columns)
        assert result.decode_rows() == brute_force_join(relations, columns)

    @pytest.mark.parametrize("kernel", KERNELS, indirect=True)
    def test_free_subtree_with_an_empty_relation_leaves_no_answers(self, kernel):
        relations, parent, output, _ = PRUNING_CASES["empty-filter"]
        tree = JoinTree(_in_kernel(relations, kernel), parent)
        assert len(yannakakis_full(tree, output_columns=output)) == 0
        assert not yannakakis_boolean(tree)

    @pytest.mark.parametrize("kernel", KERNELS, indirect=True)
    @pytest.mark.parametrize(
        "output,expected_nodes",
        [(("x",), {"r"}), (("x", "z"), {"r", "m"}), (None, {"r", "m", "l", "s"})],
        ids=["root", "partial", "full"],
    )
    def test_pruned_answers_on_the_vector_path(self, output, expected_nodes, kernel):
        """Relations of at least ``_VECTOR_MIN_ROWS`` rows, so the columnar
        kernel's semijoins, joins and projections run on NumPy."""
        rng = random.Random(16)
        shapes = {"r": ("x", "y"), "m": ("y", "z"), "l": ("z", "w"), "s": ("x", "u")}
        relations = {
            node: NamedRelation(
                columns,
                {(rng.randrange(200), rng.randrange(200)) for _ in range(700)},
            )
            for node, columns in shapes.items()
        }
        assert min(map(len, relations.values())) >= _VECTOR_MIN_ROWS
        parent = {"r": None, "m": "r", "l": "m", "s": "r"}
        tree = JoinTree(_in_kernel(relations, kernel), parent)
        columns = output or _columns(relations)
        assert set(pruned_tree(tree, columns)) == expected_nodes
        result = yannakakis_full(tree, output_columns=output)
        assert result.decode_rows() == brute_force_join(relations, columns)

    @pytest.mark.parametrize("kernel", KERNELS, indirect=True)
    def test_free_variables_in_the_root_skip_the_downward_pass_and_joins(
        self, kernel, monkeypatch
    ):
        relations, parent, output, _ = PRUNING_CASES["free-in-root"]
        tree = JoinTree(_in_kernel(relations, kernel), parent)
        calls = _spy_relational_calls(monkeypatch)
        result = yannakakis_full(tree, output_columns=output)
        assert result.decode_rows() == brute_force_join(relations, output)
        assert not calls["natural_join"]
        edges = {
            (relations[child].columns, relations[up].columns)
            for child, up in parent.items()
            if up is not None
        }
        assert calls["semijoin"], "the upward pass must still filter the root"
        assert not edges & set(calls["semijoin"]), "a child was filtered by its parent"

    # ------------------------------------------------------------------
    # The full reducer: both passes, every node consistent with the rest
    # ------------------------------------------------------------------
    @pytest.mark.parametrize("kernel", KERNELS, indirect=True)
    @pytest.mark.parametrize("case", sorted(PRUNING_CASES))
    def test_semijoin_reduce_keeps_exactly_the_rows_of_global_solutions(
        self, case, kernel
    ):
        relations, parent, _, _ = PRUNING_CASES[case]
        tree = JoinTree(_in_kernel(relations, kernel), parent)
        reduced = semijoin_reduce(tree)
        assert set(reduced) == set(relations)
        for node, relation in relations.items():
            assert reduced[node].decode_rows() == brute_force_join(
                relations, relation.columns
            ), node
        # The reducer works on copies: the tree keeps its input relations.
        for node, relation in relations.items():
            assert tree.relations[node].decode_rows() == relation.rows, node

    @pytest.mark.parametrize("kernel", KERNELS, indirect=True)
    def test_an_empty_child_sharing_no_column_empties_every_node(self, kernel):
        # The empty child shares no column with the parent, yet its semijoin
        # keeps nothing: the query has no solution, so nothing survives.
        relations = {
            "parent": _R(("x", "y"), {(i, i % 4) for i in range(100)}),
            "half": _R(("x",), {(i,) for i in range(50)}),
            "empty": _R(("z",), set()),
        }
        parent = {"parent": None, "half": "parent", "empty": "parent"}
        tree = JoinTree(_in_kernel(relations, kernel), parent)
        reduced = semijoin_reduce(tree)
        assert {node: len(relation) for node, relation in reduced.items()} == {
            "parent": 0, "half": 0, "empty": 0
        }
        assert not yannakakis_boolean(tree)
        assert len(yannakakis_full(tree, output_columns=("x", "y"))) == 0

    @pytest.mark.parametrize("kernel", KERNELS, indirect=True)
    def test_unknown_output_column_is_rejected_before_any_semijoin(
        self, kernel, monkeypatch
    ):
        tree = self._tree(kernel)
        calls = _spy_relational_calls(monkeypatch)
        with pytest.raises(ValueError, match="do not occur"):
            yannakakis_full(tree, output_columns=("x", "nowhere"))
        assert not any(calls.values()), calls

    @pytest.mark.parametrize(
        "evaluate", [decomposition_enumerate_answers, columnar_enumerate_answers]
    )
    @pytest.mark.parametrize("free", [("x",), ("x", "u"), ("z", "t")])
    @pytest.mark.parametrize("joinable", [True, False])
    def test_disconnected_component_attached_by_root_tree(self, evaluate, free, joinable):
        """A decomposition whose tree falls into two components: the
        fallback hangs the second component under the root as a subtree,
        so it stays a join tree and filters (or adds columns) exactly."""
        atoms = [
            Atom("R", ["x", "y"]), Atom("S", ["y", "z"]),
            Atom("T", ["u", "v"]), Atom("W", ["v", "t"]),
        ]
        query = ConjunctiveQuery(atoms, free_variables=free)
        bags = {0: {"x", "y"}, 1: {"y", "z"}, 2: {"u", "v"}, 3: {"v", "t"}}
        decomposition = TreeDecomposition(bags, [(0, 1), (2, 3)])
        ghd = GeneralizedHypertreeDecomposition(
            decomposition, {node: [frozenset(bag)] for node, bag in bags.items()}
        )
        parent = root_tree(ghd, query)
        assert parent[3] == 2 or parent[2] == 3
        database = Database()
        for row in [(1, 2), (2, 3), (5, 9)]:
            database.add_fact("R", row)
        for row in [(2, 7), (3, 8)]:
            database.add_fact("S", row)
        for row in [(4, 6), (5, 6)]:
            database.add_fact("T", row)
        for row in [(6 if joinable else 0, 1), (7, 2)]:
            database.add_fact("W", row)
        answers = evaluate(query, database, ghd)
        assert answers == naive_enumerate_answers(query, database)
        assert len(answers) == naive_count_answers(query, database)
        assert bool(answers) is joinable

    def test_engine_count_with_an_empty_filtering_relation(self):
        query = cqgen.star_query(3).project(["c"])
        database = Database()
        for row in [(1, 2), (2, 3)]:
            database.add_fact("R0", row)
            database.add_fact("R1", row)
        database.add_relation(Relation("R2", 2))
        session = EngineSession()
        assert session.count(query, database).count == naive_count_answers(query, database) == 0
        assert session.answer(query, database).rows == set()


class TestDecompositionGuidedEvaluation:
    @pytest.mark.parametrize(
        "query_factory,seed",
        [
            (lambda: cqgen.cycle_query(4), 0),
            (lambda: cqgen.cycle_query(5), 1),
            (lambda: cqgen.chain_query(4), 2),
            (lambda: cqgen.star_query(3), 3),
            (lambda: cqgen.jigsaw_query(2, 2), 4),
            (lambda: cqgen.clique_query(3), 5),
        ],
    )
    def test_agrees_with_baseline(self, query_factory, seed):
        query = query_factory()
        database = cqgen.planted_database(query, 3, 6, seed=seed)
        assert decomposition_boolean_answer(query, database) == boolean_answer(query, database)
        assert decomposition_enumerate_answers(query, database) == enumerate_answers(query, database)
        assert decomposition_count_answers(query, database) == count_answers(query, database)

    def test_unsatisfiable_instances_agree(self):
        query = cqgen.jigsaw_query(2, 2)
        database = cqgen.unsatisfiable_database(query, 3, 8, seed=9)
        assert not decomposition_boolean_answer(query, database)

    def test_counting_requires_full_query(self):
        query = cqgen.cycle_query(4).as_boolean()
        database = cqgen.planted_database(query, 3, 5, seed=1)
        with pytest.raises(ValueError):
            decomposition_count_answers(query, database)

    def test_boolean_query_enumeration(self):
        query = cqgen.cycle_query(4).as_boolean()
        database = cqgen.planted_database(query, 3, 5, seed=1)
        assert decomposition_enumerate_answers(query, database) == {()}

    def test_explicit_ghd_is_used(self):
        query = cqgen.cycle_query(4)
        database = cqgen.grid_constraint_database(query, colours=3)
        ghd = ghw_upper_bound(query.hypergraph()).decomposition
        assert decomposition_count_answers(query, database, ghd=ghd) == 18

    def test_mismatched_ghd_rejected(self):
        query = cqgen.cycle_query(4)
        other = cqgen.chain_query(6)
        database = cqgen.grid_constraint_database(query, colours=3)
        foreign_ghd = ghw_upper_bound(other.hypergraph()).decomposition
        with pytest.raises(DecompositionMismatchError):
            build_columnar_bag_tree(query, database, foreign_ghd)
        with pytest.raises(DecompositionMismatchError):
            decomposition_boolean_answer(query, database, foreign_ghd)

    def test_bag_join_tree_structure(self):
        query = cqgen.cycle_query(5)
        database = cqgen.grid_constraint_database(query, colours=3)
        ghd = ghw_upper_bound(query.hypergraph()).decomposition
        tree = build_columnar_bag_tree(query, database, ghd)
        assert set(tree.relations) == set(ghd.bags)
