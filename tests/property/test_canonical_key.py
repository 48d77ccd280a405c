"""Properties of :func:`repro.engine.canonical_query_key` — the isomorphism
key the batch layer's dedup pass trusts.

The contract the session relies on is one-directional soundness: **equal
keys must imply equal answer sets over any shared database**.  Collisions
between non-isomorphic queries would silently serve one query's answers for
another; missed collisions (distinct keys for isomorphic queries) only cost
a duplicate evaluation.  The properties below draw query shapes from the
workload generators (the population the batch workloads are built from) and
check:

* a variable renaming always collides with its original (the dedup hit the
  batch layer exists for);
* two draws with equal keys agree bit-for-bit with the naive solver on a
  shared random database (soundness, checked semantically — no appeal to
  the key's own construction);
* distinct generator shapes never collide (no-collision regression over
  the concrete population);
* queries with self-joins take the exact fallback: only literally equal
  queries collide, and the key says so (``"exact"`` tag).

The key is that of :func:`repro.engine.canonical_form`, which the session
plans and runs for every call that brings no plan.  Its own properties are
drawn over random self-join-free queries — constants, repeated variables,
Boolean, projected and full heads in random order:

* every renaming and atom permutation of a query has one form;
* the returned renaming carries the query onto its form: a bijection on
  the variables that leaves relations and constants alone and keeps the
  head order;
* spellings with equal forms agree on the naive solver, and the engine
  answers each of them exactly on one warm session.
"""

from hypothesis import given, settings, strategies as st

from repro.cq import Atom, ConjunctiveQuery
from repro.cq import generators as cqgen
from repro.cq.query import Constant
from repro.cq.homomorphism import naive_enumerate_answers
from repro.engine import EngineSession, canonical_form, canonical_query_key


def renamed(query: ConjunctiveQuery, suffix: str = "_r") -> ConjunctiveQuery:
    """A structurally isomorphic copy: every variable renamed."""

    def rename(term):
        return term if isinstance(term, Constant) else f"{term}{suffix}"

    atoms = [
        Atom(atom.relation, [rename(term) for term in atom.terms])
        for atom in query.atoms
    ]
    return ConjunctiveQuery(
        atoms, free_variables=[rename(v) for v in query.free_variables]
    )


def _shape(kind: str, size: int, head: str) -> ConjunctiveQuery:
    """One self-join-free query from the workload generator population."""
    if kind == "chain":
        query = cqgen.chain_query(size)
    elif kind == "star":
        query = cqgen.star_query(size)
    elif kind == "cycle":
        query = cqgen.cycle_query(size + 1)
    elif kind == "hub-cycle":
        query = cqgen.hub_cycle_query(size + 1)
    else:
        query = cqgen.clique_query(size + 1)
    if head == "boolean":
        return query.as_boolean()
    if head == "projected":
        return query.project(query.variables[:1])
    return query


SHAPE_KINDS = ("chain", "star", "cycle", "hub-cycle", "clique")
SHAPE_SIZES = (2, 3, 4)
SHAPE_HEADS = ("full", "boolean", "projected")

shapes = st.tuples(
    st.sampled_from(SHAPE_KINDS),
    st.sampled_from(SHAPE_SIZES),
    st.sampled_from(SHAPE_HEADS),
)


@settings(max_examples=60, deadline=None)
@given(shape=shapes, suffix=st.sampled_from(["_r", "__", "9"]))
def test_variable_renaming_always_collides(shape, suffix):
    query = _shape(*shape)
    copy = renamed(query, suffix)
    assert canonical_query_key(copy) == canonical_query_key(query)


@settings(max_examples=80, deadline=None)
@given(first=shapes, second=shapes, seed=st.integers(0, 2**16))
def test_equal_keys_imply_equal_answers(first, second, seed):
    query_a, query_b = _shape(*first), renamed(_shape(*second))
    if canonical_query_key(query_a) != canonical_query_key(query_b):
        return
    # Colliding queries must be interchangeable: same answers over any
    # database.  (Checked against the naive reference solver, so the
    # property cannot inherit a bug from the key's own construction.)
    database = cqgen.random_database(query_a, 4, 12, seed=seed)
    assert naive_enumerate_answers(query_a, database) == naive_enumerate_answers(
        query_b, database
    )


def test_distinct_generator_shapes_never_collide():
    population = {}
    for kind in SHAPE_KINDS:
        for size in SHAPE_SIZES:
            for head in SHAPE_HEADS:
                key = canonical_query_key(_shape(kind, size, head))
                label = (kind, size, head)
                if key in population:
                    raise AssertionError(
                        f"key collision between {population[key]} and {label}"
                    )
                population[key] = label


@settings(max_examples=40, deadline=None)
@given(
    length=st.sampled_from([4, 6, 8]),
    head=st.sampled_from(["boolean", "pair"]),
)
def test_self_joins_take_the_exact_fallback(length, head):
    query = cqgen.zigzag_cycle_query(
        length, free_variables=() if head == "boolean" else ["x0", "x1"]
    )
    assert query.has_self_joins()
    key = canonical_query_key(query)
    assert key[0] == "exact"
    # Exact duplicates still deduplicate; renamings of a self-join query do
    # NOT (canonicalising them would be graph canonisation) — the batch
    # layer must evaluate both rather than risk a wrong merge.
    assert canonical_query_key(ConjunctiveQuery(query.atoms, query.free_variables)) == key
    assert canonical_query_key(renamed(query)) != key


def test_reordered_projection_does_not_collide():
    # Answer tuples follow the head ORDER; a reordered head is a different
    # result schema and must never deduplicate against the original.
    chain = cqgen.chain_query(2)
    assert canonical_query_key(chain.project(["x0", "x2"])) != canonical_query_key(
        chain.project(["x2", "x0"])
    )


# ----------------------------------------------------------------------
# canonical_form over random self-join-free queries
# ----------------------------------------------------------------------
@st.composite
def self_join_free_queries(draw):
    """A query over distinct relations ``R0``, ``R1``, … whose terms mix a
    small variable pool (so variables repeat, within and across atoms) with
    constants; its head is Boolean, projected or full, in random order."""
    pool = [f"x{i}" for i in range(draw(st.integers(1, 5)))]
    term = st.one_of(
        st.sampled_from(pool), st.builds(Constant, st.integers(0, 2))
    )
    atoms = [
        Atom(f"R{index}", draw(st.lists(term, min_size=1, max_size=3)))
        for index in range(draw(st.integers(1, 4)))
    ]
    variables = ConjunctiveQuery(atoms).variables
    head = draw(st.sampled_from(["boolean", "projected", "full"]))
    if head == "boolean":
        free = []
    elif head == "projected":
        free = draw(st.lists(st.sampled_from(variables), unique=True)) if variables else []
    else:
        free = draw(st.permutations(variables))
    return ConjunctiveQuery(atoms, free_variables=free)


@st.composite
def spellings(draw, query):
    """``query`` under a random variable bijection onto fresh names, with
    its atoms listed in a random order and its head order kept."""
    variables = query.variables
    order = draw(st.permutations(range(len(variables))))
    rename = {variable: f"y{order[i]}" for i, variable in enumerate(variables)}

    def term(value):
        return value if isinstance(value, Constant) else rename[value]

    atoms = draw(st.permutations(query.atoms))
    return ConjunctiveQuery(
        [Atom(atom.relation, [term(t) for t in atom.terms]) for atom in atoms],
        free_variables=[rename[v] for v in query.free_variables],
    )


@st.composite
def spelled_pairs(draw):
    query = draw(self_join_free_queries())
    return query, draw(spellings(query))


@settings(max_examples=150, deadline=None)
@given(pair=spelled_pairs())
def test_every_spelling_has_one_form(pair):
    query, spelling = pair
    form, _ = canonical_form(query)
    other, _ = canonical_form(spelling)
    assert other == form
    assert other.free_variables == form.free_variables
    assert canonical_query_key(spelling) == canonical_query_key(query)


@settings(max_examples=150, deadline=None)
@given(query=self_join_free_queries())
def test_the_renaming_carries_the_query_onto_its_form(query):
    form, renaming = canonical_form(query)
    # A bijection on the query's variables.
    assert set(renaming) == set(query.variables)
    assert len(set(renaming.values())) == len(renaming)
    # Relations and constants stay; only variables are renamed.
    def term(value):
        return value if isinstance(value, Constant) else renaming[value]

    carried = {
        Atom(atom.relation, [term(t) for t in atom.terms]) for atom in query.atoms
    }
    assert carried == set(form.atoms)
    assert len(form.atoms) == len(query.atoms)
    # The head keeps its order.
    assert tuple(renaming[v] for v in query.free_variables) == form.free_variables


@settings(max_examples=60, deadline=None)
@given(pair=spelled_pairs(), seed=st.integers(0, 2**16))
def test_spellings_with_one_form_agree_on_the_naive_solver(pair, seed):
    query, spelling = pair
    database = cqgen.random_database(query, 3, 6, seed=seed)
    expected = naive_enumerate_answers(query, database)
    assert naive_enumerate_answers(spelling, database) == expected
    # The session plans the one form for both and answers each exactly.
    session = EngineSession()
    assert session.answer(query, database).rows == expected
    assert session.answer(spelling, database).rows == expected
    assert session.stats()["plan_cache"]["misses"] == 1
