"""The Yannakakis algorithm on join trees (alpha-acyclic queries).

Yannakakis' algorithm answers acyclic CQs in polynomial time: materialise one
relation per join-tree node, run an upward semijoin pass (bottom-up
filtering), a downward pass, and finally join along the tree.  Together with
join trees for width-1 GHDs it is the algorithmic core of Proposition 2.2's
upper bound; the GHD-guided evaluator in
:mod:`repro.cq.decomposition_eval` reduces bounded-ghw queries to exactly this
routine after materialising bag relations (:mod:`repro.cq.bags`).

Enumeration is task-aware: it runs only the passes its output columns ``F``
need (Yannakakis, VLDB 1981, as free-connex evaluation uses it: Bagan,
Durand and Grandjean, CSL 2007).  After the upward pass every row of a node
extends to a solution of the node's subtree, so every root row extends to a
solution of the whole tree.  The downward pass and the joins then run only
over the *pruned tree* ``T_F`` (:func:`pruned_tree`): the root, every node
whose relation holds an output column that its parent's relation lacks, and
those nodes' ancestors.  The rule is exact on a *join tree* — for every
column, the nodes holding it form a connected subtree (running
intersection; a GHD's connectedness condition gives this for bag trees):

* every output column lies in ``T_F``: the topmost node holding it is the
  root or has a parent lacking it;
* a subtree hanging off ``T_F`` below node ``p`` shares with the rest of the
  tree only columns of ``p``, so it can only filter ``p`` — and the upward
  pass has already applied that filter.  Its other columns are not output,
  so it adds nothing to the answer.

When ``T_F`` is the root alone (``F`` fits the root, which
:func:`repro.cq.bags.root_tree` arranges whenever one bag holds every free
variable), the answer is ``π_F`` of the upward-reduced root: no downward
pass and no join.

Within the unified engine (:mod:`repro.engine`) this module is the execution
half of both decomposition strategies: the planner's ``direct-yannakakis``
and ``ghd-guided`` plans only differ in which decomposition feeds the bag
materialisation that ends here.
"""

from __future__ import annotations

from collections.abc import Hashable, Mapping, Sequence

from repro.cq.relational import NamedRelation
from repro.cq.statistics import (
    ORDERING_COST,
    estimate_semijoin_fraction,
    join_ordering,
    record_reducer_ordering,
)

Node = Hashable

#: A parent smaller than this is filtered in its children's given order —
#: estimating selectivities costs more than any misordering could save.
_REDUCER_MIN_ROWS = 64


class JoinTree:
    """A rooted join tree over arbitrary node identifiers.

    Parameters
    ----------
    relations:
        Mapping node -> :class:`NamedRelation`.
    parent:
        Mapping node -> parent node (``None`` for the root).  Exactly one root
        is required; forests should be connected beforehand (or evaluated per
        tree and combined by the caller).
    """

    def __init__(self, relations: Mapping[Node, NamedRelation], parent: Mapping[Node, Node | None]) -> None:
        self.relations: dict[Node, NamedRelation] = dict(relations)
        self.parent: dict[Node, Node | None] = dict(parent)
        roots = [n for n, p in self.parent.items() if p is None]
        if len(roots) != 1:
            raise ValueError(f"a join tree needs exactly one root, found {len(roots)}")
        self.root = roots[0]
        self.children: dict[Node, list[Node]] = {n: [] for n in self.relations}
        for node, parent_node in self.parent.items():
            if parent_node is not None:
                self.children[parent_node].append(node)

    def topological_order(self) -> list[Node]:
        """Nodes ordered root-first (parents before children)."""
        order = [self.root]
        frontier = [self.root]
        while frontier:
            current = frontier.pop()
            for child in self.children[current]:
                order.append(child)
                frontier.append(child)
        return order


def _ordered_children(relations, parent_relation, children: list) -> list:
    """The order in which a parent consumes its children's semijoin filters.

    The filters commute — the reduced parent is the rows matching *every*
    child, whatever the order — so ordering is purely a cost decision: apply
    the estimated-most-selective child first and the later (more expensive)
    probes scan an already-shrunk parent.  Only consulted in cost-based mode
    for parents large enough that the sketch lookups pay for themselves;
    ties keep the given order (``sorted`` is stable), so uniform data keeps
    the historical sweep.
    """
    if (
        len(children) < 2
        or len(parent_relation) < _REDUCER_MIN_ROWS
        or join_ordering() != ORDERING_COST
    ):
        return children
    parent_stats = parent_relation.statistics()
    parent_columns = set(parent_relation.columns)

    def fraction(child: Node) -> float:
        child_relation = relations[child]
        shared = [c for c in child_relation.columns if c in parent_columns]
        return estimate_semijoin_fraction(
            parent_stats, child_relation.statistics(), shared
        )

    record_reducer_ordering()
    return sorted(children, key=fraction)


def _filter(relations: dict, owned: set, node: Node, against: Node) -> None:
    """Semijoin-filter ``relations[node]`` by ``relations[against]``.

    Relations created here (``owned``) are filtered in place; the caller's
    relations are only replaced, never mutated.  Either way the semijoins
    reuse the key indexes cached on the probe side — the downward pass hits
    each parent's index once per child."""
    current = relations[node]
    if node in owned:
        current.semijoin_inplace(relations[against])
        return
    filtered = current.semijoin(relations[against])
    if filtered is not current:
        relations[node] = filtered
        owned.add(node)


def _upward_pass(tree: JoinTree, relations: dict, owned: set) -> bool:
    """Filter parents by children, leaves first, each parent consuming its
    children in selectivity order (:func:`_ordered_children`) — equivalent
    to the classic per-node sweep, since a node's children all precede it in
    the reversed topological order and semijoin filters commute.

    Afterwards every row of a node extends to a solution of its subtree, so
    the root holds exactly the rows that extend to a solution of the whole
    tree.  Stops at the first node left empty (the query has no solution),
    after emptying the root by it so later passes see an empty root.
    Returns whether the root is non-empty.
    """
    for node in reversed(tree.topological_order()):
        for child in _ordered_children(relations, relations[node], tree.children[node]):
            _filter(relations, owned, node, child)
        if not relations[node]:
            if node != tree.root:
                _filter(relations, owned, tree.root, node)
            return False
    return True


def _downward_pass(tree: JoinTree, relations: dict, owned: set, nodes: list) -> None:
    """Filter children by parents, root first, over ``nodes`` (a subtree
    holding the root, listed parents before children)."""
    members = set(nodes)
    for node in nodes:
        for child in tree.children[node]:
            if child in members:
                _filter(relations, owned, child, node)


def semijoin_reduce(tree: JoinTree) -> dict[Node, NamedRelation]:
    """The two full semijoin passes of Yannakakis; returns the reduced
    relations.

    After reduction every remaining row participates in at least one global
    solution (the *global consistency* property of acyclic instances).
    """
    relations = dict(tree.relations)
    owned: set = set()
    _upward_pass(tree, relations, owned)
    _downward_pass(tree, relations, owned, tree.topological_order())
    return relations


def yannakakis_boolean(tree: JoinTree) -> bool:
    """BCQ via Yannakakis: the query is satisfiable iff the upward pass
    leaves the root (and so every node) non-empty; it stops at the first
    node it empties."""
    if any(len(r) == 0 for r in tree.relations.values()):
        return False
    return _upward_pass(tree, dict(tree.relations), set())


def pruned_tree(tree: JoinTree, output_columns) -> list[Node]:
    """The nodes of ``T_F`` for the output columns ``F``, parents before
    children: the root, every node whose relation holds an output column
    its parent's relation lacks, and those nodes' ancestors.  On a join tree
    the subtrees left out only filter (see the module docstring)."""
    free = set(output_columns)
    order = tree.topological_order()
    keep = {tree.root}
    for node in order:
        parent = tree.parent[node]
        if parent is None:
            continue
        introduced = free.intersection(tree.relations[node].columns)
        if introduced.difference(tree.relations[parent].columns):
            while node not in keep:
                keep.add(node)
                node = tree.parent[node]
    return [node for node in order if node in keep]


def yannakakis_full(tree: JoinTree, output_columns: Sequence[Hashable] | None = None) -> NamedRelation:
    """Enumeration via Yannakakis: the upward pass over the whole tree, then
    the downward pass and the bottom-up joins over the pruned tree ``T_F``
    only (:func:`pruned_tree`), projecting each intermediate result onto the
    output columns and the columns it shares with its parent.  When ``T_F``
    is the root alone, the answer is the projection of the upward-reduced
    root, with no downward pass and no join.

    ``output_columns`` defaults to the union of all columns (the full CQ
    case); supplying a subset yields the projection of the answers.  An
    output column absent from the tree raises ``ValueError`` before any
    work.  ``tree`` must be a join tree (running intersection): the pruning
    is exact only there.
    """
    columns = dict.fromkeys(
        c for relation in tree.relations.values() for c in relation.columns
    )
    output = tuple(columns) if output_columns is None else tuple(output_columns)
    missing = [c for c in output if c not in columns]
    if missing:
        raise ValueError(f"output columns {missing!r} do not occur in the join tree")
    relations = dict(tree.relations)
    owned: set = set()
    _upward_pass(tree, relations, owned)
    nodes = pruned_tree(tree, output)
    if len(nodes) == 1:
        return relations[tree.root].project(output)
    _downward_pass(tree, relations, owned, nodes)
    # Bottom-up joins over T_F, children before parents.  On a join tree a
    # subtree shares with the rest of T_F only its root's columns in common
    # with the parent, so those and the output columns are all a partial
    # result must carry.
    wanted = set(output)
    partial: dict = {}

    def joined(node: Node) -> NamedRelation:
        result = relations[node]
        for child in tree.children[node]:
            if child in partial:
                result = result.natural_join(partial.pop(child))
        return result

    for node in reversed(nodes[1:]):
        result = joined(node)
        shared = tree.relations[tree.parent[node]].columns
        partial[node] = result.project(
            [c for c in result.columns if c in wanted or c in shared]
        )
    return joined(tree.root).project(output)
