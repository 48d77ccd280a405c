"""Tests for conjunctive query representation."""

import pickle

import pytest

from repro.cq import Atom, ConjunctiveQuery
from repro.cq.query import Constant
from repro.cq import generators as cqgen


class TestAtom:
    def test_variables_in_order(self):
        atom = Atom("R", ["x", "y", "x", "z"])
        assert atom.variables() == ("x", "y", "z")
        assert atom.arity == 4
        assert atom.has_repeated_variables()

    def test_constants_are_not_variables(self):
        atom = Atom("R", ["x", Constant(1)])
        assert atom.variables() == ("x",)

    def test_variable_set(self):
        assert Atom("R", ["x", "y"]).variable_set() == frozenset({"x", "y"})

    def test_variables_are_computed_once(self):
        atom = Atom("R", ["x", Constant(1), "y", "x"])
        assert atom.variable_set() is atom.variable_set()
        assert atom.variables() is atom.variables()

    def test_a_pickled_atom_keeps_its_equality_and_hash(self):
        atom = Atom("R", ["x", Constant(1), "y", "x"])
        copy = pickle.loads(pickle.dumps(atom))
        assert copy == atom and hash(copy) == hash(atom)
        assert copy.variables() == ("x", "y")
        assert copy.variable_set() is copy.variable_set()
        # Equality and hash read the relation and the terms only.
        assert {atom: 1}[copy] == 1
        assert atom != Atom("R", ["x", Constant(1), "y", "y"])


class TestConjunctiveQuery:
    def test_full_by_default(self):
        query = cqgen.chain_query(3)
        assert query.is_full()
        assert not query.is_boolean()

    def test_boolean_query(self):
        query = cqgen.chain_query(3).as_boolean()
        assert query.is_boolean()
        assert query.existential_variables == query.variables

    def test_free_variables_must_occur(self):
        with pytest.raises(ValueError):
            ConjunctiveQuery([Atom("R", ["x"])], free_variables=["y"])

    def test_arity(self):
        query = cqgen.chain_query(2, arity=3)
        assert query.arity() == 3

    def test_self_join_detection(self):
        query = ConjunctiveQuery([Atom("R", ["x", "y"]), Atom("R", ["y", "z"])])
        assert query.has_self_joins()
        assert not cqgen.chain_query(3).has_self_joins()

    def test_hypergraph_of_chain(self):
        query = cqgen.chain_query(3)
        h = query.hypergraph()
        assert h.num_edges == 3
        assert h.num_vertices == 4

    def test_duplicate_scopes_collapse_in_hypergraph(self):
        query = ConjunctiveQuery([Atom("R", ["x", "y"]), Atom("S", ["y", "x"]), Atom("T", ["x", "z"])])
        h = query.hypergraph()
        assert h.num_edges == 2
        assert query.degree() == 2  # the Section 4.3 reading of degree-2 CQs

    def test_cycle_query_degree_two(self):
        assert cqgen.cycle_query(5).degree() == 2

    def test_jigsaw_query_properties(self):
        query = cqgen.jigsaw_query(3, 3)
        assert query.degree() == 2
        assert query.arity() <= 4
        assert query.hypergraph().num_edges == 9

    def test_projection(self):
        query = cqgen.chain_query(2)
        projected = query.project(["x0", "x2"])
        assert set(projected.free_variables) == {"x0", "x2"}

    def test_restrict_to_atoms(self):
        query = cqgen.chain_query(3)
        restricted = query.restrict_to_atoms(query.atoms[:2])
        assert len(restricted.atoms) == 2
        assert set(restricted.free_variables) <= set(query.free_variables)

    def test_equality_ignores_atom_order(self):
        a = ConjunctiveQuery([Atom("R", ["x", "y"]), Atom("S", ["y", "z"])])
        b = ConjunctiveQuery([Atom("S", ["y", "z"]), Atom("R", ["x", "y"])])
        assert a == b
        assert hash(a) == hash(b)

    def test_query_from_hypergraph_matches_hypergraph(self, jigsaw22):
        query = cqgen.query_from_hypergraph(jigsaw22)
        assert query.hypergraph().edges == jigsaw22.edges
        assert not query.has_self_joins()
        assert not query.has_repeated_variables()
