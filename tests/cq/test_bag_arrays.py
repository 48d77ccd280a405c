"""Bag trees held as boolean arrays (:class:`repro.cq.columnar.BagArray`).

When every relation of every bag pool is dense (``_DENSE_FACTOR``), the
largest atom view reaches ``_VECTOR_MIN_ROWS`` rows and every bag's array
stays within ``_BAG_ARRAY_CELLS`` cells, ``build_columnar_bag_tree`` holds
each bag as an array: the Yannakakis passes run as masks and ``any``
reductions, and the counting DP as sum-products.  These tests pin both
bag forms to the naive solver, joins of bag arrays to the row kernel, the
exact count past int64, and which ``cyclic_analytics`` shapes take arrays.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.cq import columnar
from repro.cq import generators as cqgen
from repro.cq.columnar import (
    _INT64_MAX,
    BagArray,
    ColumnarRelation,
    build_columnar_bag_tree,
    columnar_count_join_tree,
)
from repro.cq.database import Database, Relation
from repro.cq.homomorphism import (
    naive_boolean_answer,
    naive_count_answers,
    naive_enumerate_answers,
)
from repro.cq.query import Atom, ConjunctiveQuery, Constant
from repro.engine import EngineSession
from repro.engine.planner import STRATEGY_GHD


def _dense_database(query, domain: int, density: float, rng) -> Database:
    """Each relation holds every tuple over ``range(domain)`` with
    probability ``density``: about ``1 / density`` cells per row."""
    database = Database()
    for atom in query.atoms:
        if database.has_relation(atom.relation):
            continue
        relation = Relation(atom.relation, atom.arity)
        cells = [()]
        for _ in range(atom.arity):
            cells = [cell + (value,) for cell in cells for value in range(domain)]
        for cell in cells:
            if rng.random() < density:
                relation.add(cell)
        database.add_relation(relation)
    return database


def _spy_trees(monkeypatch) -> list:
    """Record the root bag's type of every bag tree the engine builds."""
    roots = []
    real = columnar.build_columnar_bag_tree

    def spied(query, database, ghd):
        tree = real(query, database, ghd)
        roots.append(type(tree.relations[tree.root]))
        return tree

    monkeypatch.setattr(columnar, "build_columnar_bag_tree", spied)
    return roots


def _check_against_naive(query, database) -> None:
    session = EngineSession()
    plan = session.plan(query, force_strategy=STRATEGY_GHD)
    assert plan.decomposition is not None
    assert session.answer(query, database, plan=plan).rows == naive_enumerate_answers(
        query, database
    )
    assert session.count(query, database, plan=plan).count == naive_count_answers(
        query, database
    )
    assert session.is_satisfiable(
        query, database, plan=plan
    ).satisfiable == naive_boolean_answer(query, database)


_SHAPES = {
    "cycle3": cqgen.cycle_query(3),
    "cycle4": cqgen.cycle_query(4),
    "cycle5": cqgen.cycle_query(5),
    "clique4": cqgen.clique_query(4),
}


@settings(
    max_examples=60, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    shape=st.sampled_from(sorted(_SHAPES)),
    domain=st.integers(2, 5),
    density=st.sampled_from([0.3, 0.5, 0.9]),
    variant=st.sampled_from(["plain", "constant", "repeated", "empty"]),
    free_count=st.integers(0, 5),
    seed=st.integers(0, 2**16),
)
def test_dense_bag_trees_match_the_naive_solver(
    shape, domain, density, variant, free_count, seed
):
    """Random dense databases, with ``_VECTOR_MIN_ROWS`` at 0 so small
    pools qualify: answers, counts and the Boolean answer equal the naive
    solver's, for cycles and a clique, with a constant, a repeated variable
    or an empty relation, and free variables spread over several bags (a
    join of two bag arrays, on the row kernel)."""
    rng = random.Random(seed)
    query = _SHAPES[shape]
    atoms = list(query.atoms)
    index = rng.randrange(len(atoms))
    first, second = atoms[index].terms
    if variant == "constant":
        atoms[index] = Atom(atoms[index].relation, [first, Constant(rng.randrange(domain))])
    elif variant == "repeated":
        atoms[index] = Atom(atoms[index].relation, [first, first])
    variables = sorted({t for atom in atoms for t in atom.terms if isinstance(t, str)})
    free = rng.sample(variables, min(free_count, len(variables)))
    query = ConjunctiveQuery(atoms, free_variables=free)
    database = _dense_database(query, domain, density, rng)
    if variant == "empty":
        name = atoms[rng.randrange(len(atoms))].relation
        database.relations[name] = Relation(name, 2)
    # A bound of 2 * domain ** 3 cells keeps three-variable pools in array
    # form and sends a tree with a pool over four variables (the clique's
    # bag, at more than two values) to rows.
    bound = rng.choice([2 * domain**3, columnar._BAG_ARRAY_CELLS])
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(columnar, "_VECTOR_MIN_ROWS", 0)
        patch.setattr(columnar, "_BAG_ARRAY_CELLS", bound)
        _check_against_naive(query, database)


def test_a_dense_tree_builds_bag_arrays_and_a_sparse_one_rows(monkeypatch):
    query = cqgen.cycle_query(4)
    database = _dense_database(query, 4, 0.5, random.Random(3))
    monkeypatch.setattr(columnar, "_VECTOR_MIN_ROWS", 0)
    ghd = EngineSession().plan(query).decomposition
    tree = build_columnar_bag_tree(query, database, ghd)
    assert all(isinstance(bag, BagArray) for bag in tree.relations.values())
    for bag in tree.relations.values():
        assert not bag.array.flags.writeable
    monkeypatch.setattr(columnar, "_DENSE_FACTOR", 0)
    tree = build_columnar_bag_tree(query, database, ghd)
    assert all(isinstance(bag, ColumnarRelation) for bag in tree.relations.values())


def test_a_join_of_bag_arrays_runs_on_the_row_kernel(monkeypatch):
    """The 5-cycle's full answer joins every bag; each join of two bag
    arrays runs on their rows."""
    query = cqgen.cycle_query(5)
    database = _dense_database(query, 5, 0.5, random.Random(7))
    monkeypatch.setattr(columnar, "_VECTOR_MIN_ROWS", 0)
    joins = []
    real = BagArray.natural_join

    def spied(self, other):
        result = real(self, other)
        joins.append(type(result))
        return result

    monkeypatch.setattr(BagArray, "natural_join", spied)
    roots = _spy_trees(monkeypatch)
    session = EngineSession()
    answers = session.answer(query, database).rows
    assert answers == naive_enumerate_answers(query, database)
    assert roots == [BagArray]
    assert joins and set(joins) == {ColumnarRelation}


@pytest.mark.parametrize("atoms", [7, 9])
def test_a_count_past_int64_on_bag_arrays_is_exact(atoms, monkeypatch):
    """Unary relations of 600 values: 600**atoms answers, past int64.  With
    seven atoms only the root's sum can overflow, and it sums Python ints;
    with nine some weight must pass 600**8, so the array DP stops and the
    exact Python-int DP reruns on the bags' rows."""
    query = ConjunctiveQuery([Atom(f"R{i}", [f"x{i}"]) for i in range(atoms)])
    database = Database()
    for i in range(atoms):
        database.add_relation(Relation(f"R{i}", 1, [(value,) for value in range(600)]))
    ghd = EngineSession().plan(query, force_strategy=STRATEGY_GHD).decomposition
    tree = build_columnar_bag_tree(query, database, ghd)
    assert all(isinstance(bag, BagArray) for bag in tree.relations.values())
    runs = []
    real = columnar._count_join_tree

    def spied(tree, vectorise):
        runs.append(vectorise)
        return real(tree, vectorise)

    monkeypatch.setattr(columnar, "_count_join_tree", spied)
    assert 600**7 > _INT64_MAX
    assert columnar_count_join_tree(tree) == 600**atoms
    if atoms == 9:
        assert runs == [True, False]
    assert EngineSession().count(query, database).count == 600**atoms


def _hot_pair_database(rng) -> Database:
    """``cyclic_analytics``' hot-pair triangle data: A and B put 90% of
    their ``(h, x)`` mass on three pairs of a 50-value key domain, with a
    third column over 2,500 values; C pairs 2,500 values uniformly."""
    database = Database()
    hot = [(rng.randrange(50), rng.randrange(50)) for _ in range(3)]
    for name in ("A", "B"):
        relation = Relation(name, 3)
        while len(relation) < 2250:
            h, x = hot[rng.randrange(3)] if rng.random() < 0.9 else (
                rng.randrange(50), rng.randrange(50)
            )
            relation.add((h, x, rng.randrange(2500)))
        database.add_relation(relation)
    relation = Relation("C", 2)
    while len(relation) < 2250:
        relation.add((rng.randrange(2500), rng.randrange(2500)))
    database.add_relation(relation)
    return database


def test_on_the_cyclic_analytics_shapes_only_the_cycle_plans_take_arrays(monkeypatch):
    """The 6-cycle over 40 values (both its plans) builds bag arrays; the
    wheel (36 cells per row), the star (ids to 20k) and the hot-pair
    triangle (ids to about 2.4k) build rows."""
    cycle = cqgen.cycle_query(6)
    wheel = cqgen.hub_cycle_query(4)
    star = cqgen.star_query(4)
    hot_pair = ConjunctiveQuery(
        [Atom("A", ["h", "x", "y"]), Atom("B", ["h", "x", "z"]), Atom("C", ["y", "z"])]
    ).project(["h"])
    cycle_db = cqgen.random_database(cycle, 40, 2400, seed=1)
    calls = [
        ("answer", cycle.project(["x0"]), cycle_db),
        ("count", cycle, cycle_db),
        ("answer", wheel, cqgen.random_database(wheel, 60, 6000, seed=2)),
        ("answer", star.project(["c"]), cqgen.random_database(star, 20000, 20000, seed=3)),
        ("answer", hot_pair, _hot_pair_database(random.Random(4))),
    ]
    roots = _spy_trees(monkeypatch)
    session = EngineSession()
    results = [getattr(session, task)(query, database) for task, query, database in calls]
    assert roots == [BagArray, BagArray] + [ColumnarRelation] * 3
    # The cycle's answers equal the row form's.
    monkeypatch.setattr(columnar, "_BAG_ARRAY_CELLS", 0)
    rows = EngineSession()
    assert rows.answer(cycle.project(["x0"]), cycle_db).rows == results[0].rows
    assert rows.count(cycle, cycle_db).count == results[1].count
