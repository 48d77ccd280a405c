"""Bag materialisation regressions (repro.cq.bags and the columnar bag
tree built from it).

The load-bearing invariant: atoms sharing a variable scope but carrying
different relation symbols must *all* be joined into every bag whose cover
uses that scope — a single repr-min representative would leave the bag
relation looser than the query at that node.
"""

import os
import pathlib
import subprocess
import sys

import pytest

from repro.cq import Atom, ConjunctiveQuery, Database, Relation
from repro.cq.bags import atoms_by_scope
from repro.cq.columnar import build_columnar_bag_tree
from repro.cq.decomposition_eval import (
    decomposition_count_answers,
    decomposition_enumerate_answers,
)
from repro.cq.homomorphism import count_answers, enumerate_answers
from repro.widths.ghd import GeneralizedHypertreeDecomposition
from repro.widths.tree_decomposition import TreeDecomposition


@pytest.fixture
def same_scope_instance():
    """Two atoms over the same scope {x, y} whose extensions differ."""
    query = ConjunctiveQuery([Atom("R", ["x", "y"]), Atom("S", ["x", "y"])])
    database = Database(
        [
            Relation("R", 2, {(1, 2), (3, 4), (5, 6)}),
            Relation("S", 2, {(1, 2), (3, 9)}),
        ]
    )
    return query, database


def test_atoms_by_scope_groups_all_atoms(same_scope_instance):
    query, _ = same_scope_instance
    groups = atoms_by_scope(query)
    assert set(groups) == {frozenset({"x", "y"})}
    assert [atom.relation for atom in groups[frozenset({"x", "y"})]] == ["R", "S"]


def test_every_covering_bag_joins_all_same_scope_atoms(same_scope_instance):
    """Regression: with the old repr-min mapping, a bag covering {x, y} at a
    node that was not the atoms' assignment host materialised only R — the
    looser relation {(1,2),(3,4),(5,6)} instead of R ⋈ S = {(1,2)}."""
    query, database = same_scope_instance
    edge = frozenset({"x", "y"})
    decomposition = TreeDecomposition({"a": edge, "b": edge}, [("a", "b")])
    ghd = GeneralizedHypertreeDecomposition(decomposition, {"a": [edge], "b": [edge]})
    tree = build_columnar_bag_tree(query, database, ghd)
    for node in ("a", "b"):
        relation = tree.relations[node]
        assert set(relation.columns) == {"x", "y"}
        x, y = relation.column_index("x"), relation.column_index("y")
        assert {(row[x], row[y]) for row in relation.decode_rows()} == {(1, 2)}


def test_same_scope_evaluation_matches_naive(same_scope_instance):
    query, database = same_scope_instance
    assert decomposition_enumerate_answers(query, database) == enumerate_answers(
        query, database
    ) == {(1, 2)}
    assert decomposition_count_answers(query, database) == count_answers(query, database) == 1


def test_same_scope_in_larger_acyclic_query():
    query = ConjunctiveQuery(
        [Atom("R", ["x", "y"]), Atom("S", ["x", "y"]), Atom("T", ["y", "z"])]
    )
    database = Database(
        [
            Relation("R", 2, {(1, 2), (3, 4)}),
            Relation("S", 2, {(1, 2), (3, 4), (7, 8)}),
            Relation("T", 2, {(2, 5), (4, 6), (8, 0)}),
        ]
    )
    assert decomposition_enumerate_answers(query, database) == enumerate_answers(
        query, database
    ) == {(1, 2, 5), (3, 4, 6)}


def test_same_scope_different_variable_order():
    """S(y, x) has the same scope as R(x, y) but reversed columns: the join
    must align on names, not positions."""
    query = ConjunctiveQuery([Atom("R", ["x", "y"]), Atom("S", ["y", "x"])])
    database = Database(
        [
            Relation("R", 2, {(1, 2), (3, 4)}),
            Relation("S", 2, {(2, 1), (9, 3)}),
        ]
    )
    assert decomposition_enumerate_answers(query, database) == enumerate_answers(
        query, database
    ) == {(1, 2)}


_ROOT_SCRIPT = """
from repro.cq import generators as cqgen
from repro.cq.columnar import build_columnar_bag_tree
from repro.engine import EngineSession

query = cqgen.star_query(3).project(["c", "x0"])
database = cqgen.hub_database(query, 20, 30, seed=97, hot_values=2)
ghd = EngineSession().plan(query).decomposition
tree = build_columnar_bag_tree(query, database, ghd)
print(" ".join(sorted(tree.relations[tree.root].columns)))
"""


@pytest.mark.parametrize("hash_seed", ["0", "4"])
def test_join_tree_root_holds_the_free_variables_under_any_hash_seed(hash_seed):
    """Regression: the root was the repr-min bag, and a frozenset's repr
    lists its members in string-hash order — under these hash seeds a star
    query projected onto (c, x0) was rooted at a bag without x0, and the
    join pass dragged x0 through every intermediate result."""
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    src = pathlib.Path(__file__).resolve().parents[2] / "src"
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (str(src), env.get("PYTHONPATH")) if part
    )
    completed = subprocess.run(
        [sys.executable, "-c", _ROOT_SCRIPT],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    roots = completed.stdout.splitlines()
    assert len(roots) == 1
    for root_columns in roots:
        assert "x0" in root_columns.split(), root_columns
