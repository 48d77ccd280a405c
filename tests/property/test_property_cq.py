"""Property-based tests for the CQ engine and the Theorem 3.4 reduction."""

import itertools

from hypothesis import given, settings, strategies as st

from repro.cq import generators as cqgen
from repro.cq.columnar import build_columnar_bag_tree
from repro.cq.decomposition_eval import (
    decomposition_boolean_answer,
    decomposition_count_answers,
    decomposition_enumerate_answers,
)
from repro.cq.homomorphism import (
    boolean_answer,
    count_answers,
    enumerate_answers,
    naive_count_answers,
    naive_enumerate_answers,
)
from repro.cq.yannakakis import pruned_tree
from repro.dilutions import DilutionSequence, MergeOnVertex, DeleteVertex
from repro.engine import EngineSession
from repro.hypergraphs import Hypergraph
from repro.hypergraphs.generators import random_acyclic_hypergraph
from repro.reductions import reduce_along_dilution
from repro.reductions.parsimonious import verify_answer_preservation, verify_parsimony

#: kind -> the sizes drawn for it (the jigsaw is fixed at 2 x 2).
QUERY_SIZES = {
    "chain": range(2, 5),
    "cycle": range(3, 6),
    "star": range(2, 5),
    "jigsaw": range(1),
    "acyclic": range(2, 6),
}


def small_query(kind: str, size: int, seed: int):
    """A full query of one kind; ``seed`` only shapes the random acyclic
    hypergraphs (``size`` edges of rank at most 3)."""
    if kind == "chain":
        return cqgen.chain_query(size)
    if kind == "cycle":
        return cqgen.cycle_query(size)
    if kind == "star":
        return cqgen.star_query(size)
    if kind == "jigsaw":
        return cqgen.jigsaw_query(2, 2)
    return cqgen.query_from_hypergraph(random_acyclic_hypergraph(size, 3, seed=seed))


@st.composite
def small_query_and_database(draw):
    """A random small query (chain/cycle/star/jigsaw/random acyclic) with a
    random database."""
    kind = draw(st.sampled_from(sorted(QUERY_SIZES)))
    seed = draw(st.integers(0, 10_000))
    query = small_query(kind, draw(st.sampled_from(QUERY_SIZES[kind])), seed)
    planted = draw(st.booleans())
    if planted:
        database = cqgen.planted_database(query, 3, draw(st.integers(2, 6)), seed=seed)
    else:
        database = cqgen.random_database(query, 3, draw(st.integers(2, 6)), seed=seed)
    return query, database


@given(small_query_and_database())
@settings(max_examples=40, deadline=None)
def test_decomposition_evaluation_agrees_with_baseline(instance):
    query, database = instance
    assert decomposition_boolean_answer(query, database) == boolean_answer(query, database)
    assert decomposition_enumerate_answers(query, database) == enumerate_answers(query, database)
    assert decomposition_count_answers(query, database) == count_answers(query, database)


@st.composite
def projected_query_and_database(draw):
    """A small query and database, projected onto a drawn non-empty subset
    of its variables."""
    query, database = draw(small_query_and_database())
    variables = sorted(query.variables, key=repr)
    free = draw(st.lists(st.sampled_from(variables), min_size=1, unique=True))
    return query.project(free), database


@given(projected_query_and_database())
@settings(max_examples=60, deadline=None)
def test_projected_answers_and_counts_agree_with_the_naive_solver(instance):
    query, database = instance
    expected = naive_enumerate_answers(query, database)
    session = EngineSession()
    assert session.answer(query, database).rows == expected
    assert session.count(query, database).count == naive_count_answers(query, database)
    assert decomposition_enumerate_answers(query, database) == expected


def _pruned_shape(query, database) -> str:
    """Which part of the engine's bag tree the join pass keeps for the
    query's free variables: the root only, part of the tree, or all of it."""
    decomposition = EngineSession().plan(query).decomposition
    tree = build_columnar_bag_tree(query, database, decomposition)
    kept = len(pruned_tree(tree, query.free_variables))
    if kept == 1:
        return "root"
    return "whole" if kept == len(tree.relations) else "partial"


def test_projected_queries_reach_every_pruned_shape():
    """The generator of the property test above reaches all three shapes
    of the pruned tree, each on several query kinds."""
    kinds_by_shape: dict = {}
    for kind, sizes in QUERY_SIZES.items():
        for size in sizes:
            query = small_query(kind, size, seed=size)
            database = cqgen.random_database(query, 3, 4, seed=size)
            variables = sorted(query.variables, key=repr)
            for free in itertools.combinations(variables, 2):
                shape = _pruned_shape(query.project(free), database)
                kinds_by_shape.setdefault(shape, set()).add(kind)
    assert set(kinds_by_shape) == {"root", "partial", "whole"}
    assert all(len(kinds) >= 2 for kinds in kinds_by_shape.values()), kinds_by_shape


@st.composite
def merge_reduction_instance(draw):
    """A source hypergraph with one merge operation, plus a database for the
    diluted query — the minimal non-trivial Theorem 3.4 scenario."""
    extra = draw(st.integers(1, 3))
    edges = [{"a", "v"}, {"v", "b"}] + [{f"w{i}", f"w{i+1}"} for i in range(extra)]
    edges.append({"b", "w0"})
    source = Hypergraph(edges=edges)
    sequence = DilutionSequence([MergeOnVertex("v")])
    seed = draw(st.integers(0, 10_000))
    return source, sequence, seed


@given(merge_reduction_instance())
@settings(max_examples=25, deadline=None)
def test_reduction_preserves_answers_and_counts(instance):
    source, sequence, seed = instance
    diluted = sequence.apply(source)
    query = cqgen.query_from_hypergraph(diluted)
    database = cqgen.random_database(query, 3, 5, seed=seed)
    result = reduce_along_dilution(query, database, source, sequence)
    assert result.query.hypergraph().edges == source.edges
    assert verify_answer_preservation(result)
    assert verify_parsimony(result)


@given(st.integers(0, 10_000), st.integers(2, 4))
@settings(max_examples=25, deadline=None)
def test_vertex_deletion_reduction_roundtrip(seed, length):
    source = Hypergraph(
        edges=[{f"x{i}", f"x{i+1}", "extra"} if i == 0 else {f"x{i}", f"x{i+1}"} for i in range(length)]
    )
    sequence = DilutionSequence([DeleteVertex("extra")])
    diluted = sequence.apply(source)
    query = cqgen.query_from_hypergraph(diluted)
    database = cqgen.random_database(query, 3, 6, seed=seed)
    result = reduce_along_dilution(query, database, source, sequence)
    assert verify_answer_preservation(result)
    assert verify_parsimony(result)
