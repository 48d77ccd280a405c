"""Conjunctive queries (Section 2).

A conjunctive query is a function-free conjunction of relational atoms.  In
line with the paper we work with the following conventions:

* variables are plain strings (or any hashable), constants are wrapped in
  :class:`Constant` so they can never be confused with variables;
* queries may declare *free* variables; a query is **full** when every
  variable is free (required for the counting problem, Section 4.4) and
  **Boolean** when it has no free variables;
* the hypergraph of a query has the variables as vertices and one edge per
  atom variable-scope (so two atoms over the same variables contribute a
  single edge — the reading used in Section 4.3's degree discussion).
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable, Sequence
from dataclasses import dataclass

from repro.hypergraphs.hypergraph import Hypergraph

Term = Hashable


@dataclass(frozen=True)
class Constant:
    """A constant term appearing in a query atom (rare in this reproduction,
    but needed to distinguish constants from variables unambiguously)."""

    value: Hashable

    def __repr__(self) -> str:
        return f"Constant({self.value!r})"


@dataclass(frozen=True)
class Atom:
    """A relational atom ``R(t_1, ..., t_n)``."""

    relation: str
    terms: tuple

    def __init__(self, relation: str, terms: Iterable[Term]) -> None:
        object.__setattr__(self, "relation", relation)
        object.__setattr__(self, "terms", tuple(terms))

    @property
    def arity(self) -> int:
        return len(self.terms)

    def variables(self) -> tuple:
        """The variables of the atom, in order of first occurrence."""
        seen = []
        for term in self.terms:
            if isinstance(term, Constant):
                continue
            if term not in seen:
                seen.append(term)
        return tuple(seen)

    def variable_set(self) -> frozenset:
        return frozenset(self.variables())

    def has_repeated_variables(self) -> bool:
        variables = [t for t in self.terms if not isinstance(t, Constant)]
        return len(variables) != len(set(variables))

    def __repr__(self) -> str:
        rendered = ", ".join(
            repr(t.value) if isinstance(t, Constant) else str(t) for t in self.terms
        )
        return f"{self.relation}({rendered})"


class ConjunctiveQuery:
    """A conjunctive query: a list of atoms plus the set of free variables.

    Parameters
    ----------
    atoms:
        The atoms of the query (order is preserved for display but carries no
        semantics).
    free_variables:
        The answer variables.  ``None`` (default) makes the query *full*
        (all variables free); an empty iterable makes it Boolean.
    """

    def __init__(
        self,
        atoms: Sequence[Atom],
        free_variables: Iterable[Term] | None = None,
    ) -> None:
        self.atoms: tuple[Atom, ...] = tuple(atoms)
        #: All variables, in order of first occurrence.
        self.variables: tuple = tuple(
            dict.fromkeys(
                variable for atom in self.atoms for variable in atom.variables()
            )
        )
        if free_variables is None:
            self.free_variables: tuple = self.variables
        else:
            free = tuple(dict.fromkeys(free_variables))
            unknown = set(free) - set(self.variables)
            if unknown:
                raise ValueError(f"free variables {sorted(map(repr, unknown))} do not occur in the query")
            self.free_variables = free
        # The identity __eq__ and __hash__ read: the head compared as a set.
        self._atom_set = frozenset(self.atoms)
        self._head_set = frozenset(self.free_variables)
        #: ``(form, renaming)`` memo of :func:`repro.engine.session.canonical_form`.
        self._canonical = None

    def __getstate__(self) -> dict:
        # The canonical-form memo is derived; a receiver rebuilds its own.
        state = self.__dict__.copy()
        state["_canonical"] = None
        return state

    @property
    def existential_variables(self) -> tuple:
        free = set(self.free_variables)
        return tuple(v for v in self.variables if v not in free)

    def is_boolean(self) -> bool:
        return not self.free_variables

    def is_full(self) -> bool:
        """True if there is no existential quantification (every variable free)."""
        return set(self.free_variables) == set(self.variables)

    def arity(self) -> int:
        """The maximal arity of the query's atoms."""
        if not self.atoms:
            return 0
        return max(atom.arity for atom in self.atoms)

    # ------------------------------------------------------------------
    def relation_names(self) -> tuple:
        return tuple(dict.fromkeys(atom.relation for atom in self.atoms))

    def has_self_joins(self) -> bool:
        names = [atom.relation for atom in self.atoms]
        return len(names) != len(set(names))

    def has_repeated_variables(self) -> bool:
        return any(atom.has_repeated_variables() for atom in self.atoms)

    def has_constants(self) -> bool:
        return any(isinstance(t, Constant) for atom in self.atoms for t in atom.terms)

    # ------------------------------------------------------------------
    def hypergraph(self) -> Hypergraph:
        """The query hypergraph: variables as vertices, one edge per atom
        variable-scope (duplicate scopes collapse)."""
        return Hypergraph(
            vertices=self.variables,
            edges=[atom.variable_set() for atom in self.atoms],
        )

    def degree(self) -> int:
        """The degree of the query = the degree of its hypergraph (the more
        permissive reading discussed in Section 4.3)."""
        return self.hypergraph().degree()

    # ------------------------------------------------------------------
    def as_boolean(self) -> "ConjunctiveQuery":
        """The Boolean version of this query (no free variables)."""
        return ConjunctiveQuery(self.atoms, free_variables=())

    def as_full(self) -> "ConjunctiveQuery":
        """The full version of this query (all variables free)."""
        return ConjunctiveQuery(self.atoms, free_variables=None)

    def project(self, variables: Iterable[Term]) -> "ConjunctiveQuery":
        """The same atoms with a different set of free variables."""
        return ConjunctiveQuery(self.atoms, free_variables=variables)

    def restrict_to_atoms(self, atoms: Iterable[Atom]) -> "ConjunctiveQuery":
        kept = tuple(atoms)
        surviving = set()
        for atom in kept:
            surviving.update(atom.variables())
        free = tuple(v for v in self.free_variables if v in surviving)
        return ConjunctiveQuery(kept, free_variables=free)

    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ConjunctiveQuery):
            return NotImplemented
        return self._atom_set == other._atom_set and self._head_set == other._head_set

    def __hash__(self) -> int:
        return hash((self._atom_set, self._head_set))

    def __repr__(self) -> str:
        body = " AND ".join(repr(atom) for atom in self.atoms)
        head = ", ".join(str(v) for v in self.free_variables)
        return f"ConjunctiveQuery({head} :- {body})"
