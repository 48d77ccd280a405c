"""Bag materialisation: from (query, database, GHD) to a ready join tree.

This is stage 1 of the Proposition 2.2 evaluation scheme, shared by every
decomposition-guided strategy of the engine (:mod:`repro.engine`): for each
decomposition node, join the relations of its cover ``lambda_u`` together
with every atom assigned to the node, and project onto the bag.  The bag
relations arranged along the decomposition tree form an acyclic instance
equivalent to the original query, which Yannakakis (or the counting DP of
:mod:`repro.cq.counting`) finishes in polynomial time.

Duplicate variable scopes are handled by joining *all* atoms sharing a scope
into every bag whose cover uses that scope as an edge: two atoms over the
same variables constrain the bag through different relations, so picking a
single representative would leave a bag relation looser than the query at
that node (the semijoin passes still see the other atom at its assigned
node, but the local invariant — every bag relation is the exact projection
of its atoms' join — would be lost).
"""

from __future__ import annotations

from collections.abc import Hashable

from repro.cq.database import Database
from repro.cq.query import Atom, ConjunctiveQuery
from repro.cq.relational import NamedRelation, from_atom, natural_join_all
from repro.cq.yannakakis import JoinTree
from repro.widths.ghd import GeneralizedHypertreeDecomposition

Node = Hashable


class DecompositionMismatchError(ValueError):
    """Raised when the supplied GHD does not fit the query's hypergraph."""


def atoms_by_scope(query: ConjunctiveQuery) -> dict[frozenset, list[Atom]]:
    """All atoms grouped by variable scope, deterministically ordered.

    One hypergraph edge corresponds to *every* atom with that variable scope
    (duplicate scopes collapse into a single edge); a bag covering the edge
    must join them all.
    """
    by_scope: dict[frozenset, list[Atom]] = {}
    for atom in query.atoms:
        by_scope.setdefault(atom.variable_set(), []).append(atom)
    return {scope: sorted(atoms, key=repr) for scope, atoms in by_scope.items()}


def assign_atoms_to_nodes(
    query: ConjunctiveQuery, ghd: GeneralizedHypertreeDecomposition
) -> dict[Node, list[Atom]]:
    """Assign every atom to one decomposition node whose bag contains its scope."""
    assignment: dict[Node, list[Atom]] = {node: [] for node in ghd.bags}
    nodes = sorted(ghd.bags, key=repr)
    for atom in query.atoms:
        scope = atom.variable_set()
        host = next((node for node in nodes if scope <= ghd.bags[node]), None)
        if host is None:
            raise DecompositionMismatchError(
                f"atom {atom!r} is not covered by any bag of the decomposition"
            )
        assignment[host].append(atom)
    return assignment


def root_tree(
    ghd: GeneralizedHypertreeDecomposition, query: ConjunctiveQuery
) -> dict:
    """Orient the decomposition tree from the bag covering the most free
    variables of ``query``.

    The Yannakakis join pass carries every free variable up to the root,
    so a free variable in a bag far from the root widens each intermediate
    result on its way; a root holding the free variables keeps those
    results narrow.  Ties break on the bag's sorted variable reprs — never
    on the repr of the node itself, which for a frozenset node lists its
    members in string-hash order and would make the root depend on
    ``PYTHONHASHSEED``.
    """
    nodes = sorted(ghd.bags, key=repr)
    if not nodes:
        raise DecompositionMismatchError("the decomposition has no nodes")
    free = set(query.free_variables)
    root = min(
        nodes,
        key=lambda node: (
            -len(free & ghd.bags[node]),
            sorted(map(repr, ghd.bags[node])),
        ),
    )
    parent: dict[Node, Node | None] = {}
    decomposition = ghd.decomposition
    # The decomposition tree should be connected.  If it is not, each
    # leftover component is oriented from its first node, which hangs under
    # the root: by connectedness a component's bags share no variable with
    # the rest, so the result is still a join tree (a plain conjunction of
    # the components), as the pruned Yannakakis join pass needs.
    for start in [root, *nodes]:
        if start in parent:
            continue
        parent[start] = None if start == root else root
        frontier = [start]
        while frontier:
            current = frontier.pop()
            for neighbour in decomposition.neighbours(current):
                if neighbour not in parent:
                    parent[neighbour] = current
                    frontier.append(neighbour)
    return parent


def build_bag_join_tree(
    query: ConjunctiveQuery, database: Database, ghd: GeneralizedHypertreeDecomposition
) -> JoinTree:
    """Materialise bag relations and arrange them along the decomposition tree."""
    scope_atoms = atoms_by_scope(query)
    assignment = assign_atoms_to_nodes(query, ghd)
    # One atom may be materialised at several nodes (cover edge here, assigned
    # atom there): build its named relation once and share it — the cached key
    # indexes on the shared relation then serve every bag join that probes it.
    materialised: dict[Atom, NamedRelation] = {}

    def relation_for(atom: Atom) -> NamedRelation:
        if atom not in materialised:
            materialised[atom] = from_atom(atom, database)
        return materialised[atom]

    bag_relations: dict[Node, NamedRelation] = {}
    for node, bag in ghd.bags.items():
        atoms: list[Atom] = []
        for cover_edge in sorted(ghd.covers[node], key=lambda e: sorted(map(repr, e))):
            for atom in scope_atoms.get(frozenset(cover_edge), ()):
                if atom not in atoms:
                    atoms.append(atom)
        for atom in assignment[node]:
            if atom not in atoms:
                atoms.append(atom)
        if not atoms:
            bag_relations[node] = NamedRelation(tuple(sorted(bag, key=repr)), set())
            if not bag:
                bag_relations[node] = NamedRelation((), {()})
            continue
        joined = natural_join_all([relation_for(atom) for atom in atoms])
        keep = [c for c in joined.columns if c in bag]
        bag_relations[node] = joined.project(keep)
    return JoinTree(bag_relations, root_tree(ghd, query))
