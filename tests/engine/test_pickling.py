"""Serialization contract: queries, plans, and databases round-trip pickle.

A hard prerequisite of the process runtime: every task the coordinator
ships (:class:`ConjunctiveQuery`, sometimes a :class:`Database` piece) and
everything a worker could send back must survive ``pickle.dumps``/``loads``
with unchanged semantics.  Memoized derived state — incidence/adjacency
maps and hashes on hypergraphs, the columnar store on databases — must be
*dropped* in transit: it is rebuilt
on the receiving side, and shipping it would both bloat the payload and
risk resurrecting stale caches.
"""

import pickle

import pytest

from repro.cq import Atom, ConjunctiveQuery, Database
from repro.cq import generators as cqgen
from repro.cq.query import Constant
from repro.engine import EngineSession
from repro.hypergraphs.hypergraph import Hypergraph


def roundtrip(obj):
    return pickle.loads(pickle.dumps(obj))


QUERIES = [
    ("chain", cqgen.chain_query(3)),
    ("chain-projected", cqgen.chain_query(3).project(["x0", "x3"])),
    ("cycle-boolean", cqgen.cycle_query(4).as_boolean()),
    ("hub-cycle", cqgen.hub_cycle_query(4)),
    ("zigzag-self-join", cqgen.zigzag_cycle_query(4, free_variables=["x0", "x1"])),
    (
        "constants-and-repeats",
        ConjunctiveQuery(
            [Atom("R", ["x", Constant(1), "x"]), Atom("S", ["x", "y"])],
            free_variables=["y", "x"],
        ),
    ),
]


class TestQueryRoundTrip:
    @pytest.mark.parametrize("name,query", QUERIES, ids=[n for n, _ in QUERIES])
    def test_query_equal_and_head_order_preserved(self, name, query):
        copy = roundtrip(query)
        assert copy == query
        # __eq__ compares the head as a set; the answer-tuple column order
        # must survive too.
        assert copy.free_variables == query.free_variables
        assert copy.atoms == query.atoms

    @pytest.mark.parametrize("name,query", QUERIES, ids=[n for n, _ in QUERIES])
    def test_answers_identical_pre_and_post_roundtrip(self, name, query):
        database = cqgen.random_database(query, 5, 14, seed=7)
        session = EngineSession()
        expected = session.answer(query, database).rows
        copy_query = roundtrip(query)
        copy_database = roundtrip(database)
        assert copy_database == database
        assert EngineSession().answer(copy_query, copy_database).rows == expected


class TestPlanRoundTrip:
    @pytest.mark.parametrize("name,query", QUERIES, ids=[n for n, _ in QUERIES])
    def test_plan_roundtrips_and_still_executes(self, name, query):
        session = EngineSession()
        plan = session.plan(query)
        copy = roundtrip(plan)
        assert copy.strategy == plan.strategy
        assert copy.width == plan.width
        assert copy.rationale == plan.rationale
        assert copy.query == plan.query
        assert copy.source_query == plan.source_query
        # The shipped plan embeds its witness: a fresh engine executes it
        # without re-planning and agrees with the original.
        database = cqgen.random_database(query, 5, 14, seed=3)
        assert (
            EngineSession().answer(query, database, plan=copy).rows
            == session.answer(query, database, plan=plan).rows
        )

    def test_hypergraph_roundtrip_drops_lazy_caches(self):
        hypergraph = cqgen.cycle_query(5).hypergraph()
        hypergraph.degree()  # force the incidence map
        hash(hypergraph)
        copy = roundtrip(hypergraph)
        assert copy == hypergraph
        assert hash(copy) == hash(hypergraph)
        assert copy._incidence is None
        assert copy._adjacency is None


class TestWireRoundTrip:
    """The compact shipping form the process runtime actually uses: a
    database crosses the boundary as the pickled delta from version zero
    and applies into an equal database with a *warm* columnar store."""

    @pytest.mark.parametrize("name,query", QUERIES, ids=[n for n, _ in QUERIES])
    def test_wire_roundtrip_preserves_answers(self, name, query):
        database = cqgen.random_database(query, 5, 14, seed=7)
        expected = EngineSession().answer(query, database).rows
        decoded = Database.from_wire(
            pickle.loads(pickle.dumps(database.to_wire()))
        )
        assert decoded == database
        assert EngineSession().answer(query, decoded).rows == expected

    def test_decoded_database_arrives_with_a_warm_store(self):
        query = cqgen.chain_query(3)
        database = cqgen.random_database(query, 5, 14, seed=7)
        decoded = Database.from_wire(
            pickle.loads(pickle.dumps(database.to_wire()))
        )
        # Unlike a plain pickle (which DROPS the derived store), the wire
        # decode installs one: the first query never re-interns the tuples.
        assert pickle.loads(pickle.dumps(database)).columnar_cache is None
        store = decoded.columnar_cache
        assert store is not None
        assert len(store.interner) > 0

    def test_wire_is_smaller_than_pickled_database(self):
        query = cqgen.hub_cycle_query(4)
        database = cqgen.random_database(query, 30, 1500, seed=5)
        wire = len(pickle.dumps(database.to_wire(), pickle.HIGHEST_PROTOCOL))
        plain = len(pickle.dumps(database, pickle.HIGHEST_PROTOCOL))
        assert wire < plain
