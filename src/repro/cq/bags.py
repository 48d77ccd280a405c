"""The decomposition side of bag materialisation: atom grouping, atom
placement and the rooting of the decomposition tree.

Stage 1 of the Proposition 2.2 evaluation scheme materialises, for each
decomposition node, the join of the relations of its cover ``lambda_u``
together with every atom assigned to the node, projected onto the bag.  The
bag relations arranged along the decomposition tree form an acyclic instance
equivalent to the original query, which Yannakakis (or the counting DP)
finishes in polynomial time.  The columnar kernel builds that tree
(:func:`repro.cq.columnar.build_columnar_bag_tree`) from the helpers here.

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

from repro.cq.query import Atom, ConjunctiveQuery

# ``natural_join_all`` is unused here but stays bound by name:
# perfbench/tracing.py wraps the join in this module's namespace.
from repro.cq.relational import natural_join_all  # noqa: F401
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
