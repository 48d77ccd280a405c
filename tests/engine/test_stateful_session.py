"""A stateful check of one warm session against the naive solver.

A Hypothesis state machine drives one :class:`EngineSession` over one
growing :class:`Database` through arbitrary interleavings of appends
(including to relations the database lacks at first), plain and sharded
``answer`` / ``count`` / ``is_satisfiable`` calls on random spellings of
the queries (renamed variables, permuted atoms), and standing views that
are opened and refreshed.  After every step each result, and each refreshed
view, must equal the naive solver on the current data.  The fixed query set
covers the three strategies — acyclic, width-2 cyclic, and a 7-clique past
the planner's width limit that runs on backtracking — plus a constant, a
repeated variable and self-joins.
"""

from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, rule

from repro.cq import Atom, ConjunctiveQuery, Database, Relation
from repro.cq.homomorphism import naive_enumerate_answers
from repro.cq.query import Constant
from repro.engine import EngineSession
from repro.engine.planner import (
    STRATEGY_BACKTRACKING,
    STRATEGY_GHD,
    STRATEGY_YANNAKAKIS,
)


def _clique(relation: str, size: int) -> list:
    names = [f"v{i}" for i in range(size)]
    return [
        Atom(relation, (names[i], names[j]))
        for i in range(size) for j in range(i + 1, size)
    ]


QUERIES = [
    # Acyclic, not free-connex.
    ConjunctiveQuery(
        [Atom("E", ("x", "y")), Atom("F", ("y", "z"))], free_variables=("x", "z")
    ),
    # Acyclic with a constant, and with a repeated variable.
    ConjunctiveQuery([Atom("E", ("x", Constant(1))), Atom("F", ("x", "y"))]),
    ConjunctiveQuery([Atom("E", ("x", "x")), Atom("F", ("x", "y"))]),
    # Width 2: a self-joined triangle, and a 4-cycle projected onto one
    # variable.
    ConjunctiveQuery(
        [Atom("E", ("x", "y")), Atom("E", ("y", "z")), Atom("E", ("z", "x"))]
    ),
    ConjunctiveQuery(
        [
            Atom("E", ("a", "b")), Atom("F", ("b", "c")),
            Atom("E", ("c", "d")), Atom("F", ("d", "a")),
        ],
        free_variables=("a",),
    ),
    # Width 4 (a 7-clique): past the planner's limit, so backtracking.  Its
    # relation holds values 0 and 1 only, which keeps the naive solver's
    # search to at most 2^7 assignments.
    ConjunctiveQuery(_clique("K", 7), free_variables=("v0", "v1")),
]

def respelled(query: ConjunctiveQuery, rng) -> ConjunctiveQuery:
    """``query`` with its variables renamed onto fresh names and its atoms
    permuted by ``rng``; the head keeps its order."""
    fresh = [f"r{i}" for i in range(len(query.variables))]
    rng.shuffle(fresh)
    rename = dict(zip(query.variables, fresh))
    atoms = list(query.atoms)
    rng.shuffle(atoms)
    return ConjunctiveQuery(
        [Atom(atom.relation, [rename.get(t, t) for t in atom.terms]) for atom in atoms],
        free_variables=[rename[v] for v in query.free_variables],
    )


#: Values each relation draws from.
DOMAINS = {"E": 4, "F": 4, "K": 2}


def test_the_queries_cover_every_strategy():
    session = EngineSession()
    strategies = {session.plan(query).strategy for query in QUERIES}
    assert strategies == {STRATEGY_YANNAKAKIS, STRATEGY_GHD, STRATEGY_BACKTRACKING}


class WarmSession(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.session = EngineSession()
        # F and K are absent until an append creates them.
        self.database = Database([Relation("E", 2, {(0, 1), (1, 2), (2, 0)})])
        self.views: list = []

    def expected(self, index: int) -> set:
        return naive_enumerate_answers(QUERIES[index], self.database)

    @rule(
        relation=st.sampled_from(sorted(DOMAINS)),
        rows=st.lists(
            st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=1, max_size=4
        ),
    )
    def append(self, relation, rows):
        domain = DOMAINS[relation]
        for a, b in rows:
            self.database.add_fact(relation, (a % domain, b % domain))

    @rule(
        index=st.integers(0, len(QUERIES) - 1),
        task=st.sampled_from(["answer", "count", "is_satisfiable"]),
        shards=st.sampled_from([1, 2]),
        rng=st.randoms(use_true_random=False),
    )
    def call(self, index, task, shards, rng):
        # A random spelling of the query: the session runs one canonical
        # form for all of them, so plans and views are shared across
        # spellings and across appends.
        query, expected = respelled(QUERIES[index], rng), self.expected(index)
        if task == "answer":
            got = self.session.answer(query, self.database, shards=shards).rows
            assert got == expected
        elif task == "count":
            got = self.session.count(query, self.database, shards=shards).count
            assert got == len(expected)
        else:
            got = self.session.is_satisfiable(query, self.database, shards=shards)
            assert got.value == bool(expected)

    @rule(index=st.integers(0, len(QUERIES) - 1))
    def open_view(self, index):
        view = self.session.incremental_view(QUERIES[index], self.database)
        self.views.append((index, view))

    @rule()
    def refresh_views(self):
        for index, view in self.views:
            assert view.refresh().rows == self.expected(index), QUERIES[index]


TestWarmSession = WarmSession.TestCase
TestWarmSession.settings = settings(
    max_examples=50, stateful_step_count=20, deadline=None
)
