"""GHD-guided CQ evaluation (the Proposition 2.2 upper bound).

Given a generalised hypertree decomposition of the query's hypergraph of
width ``k``, evaluation proceeds in two stages:

1. **Bag materialisation** (:mod:`repro.cq.bags`) — for every decomposition
   node, join the (at most ``k``) relations of its cover ``lambda_u``
   together with every atom assigned to that node, and project onto the bag.
   Each bag relation has size at most ``||D||^k``.
2. **Acyclic evaluation** — the bag relations arranged along the
   decomposition tree form an acyclic instance equivalent to the original
   query, which Yannakakis answers in polynomial time.

This is what makes BCQ tractable for classes of bounded ghw, and (for full
CQs) what makes #CQ polynomial via the counting DP in
:mod:`repro.cq.counting`.

This is the tuple-set, paper-reference implementation of the scheme.  The
engine (:mod:`repro.engine`) evaluates the same stages on the columnar
kernel of :mod:`repro.cq.columnar`; these functions stay directly callable
with an explicitly supplied (or freshly computed) GHD, and tests and
benchmarks use them as the readable reference the kernel is checked and
timed against.
"""

from __future__ import annotations

from repro.cq.bags import (  # noqa: F401  (re-exported for compatibility)
    DecompositionMismatchError,
    build_bag_join_tree,
)
from repro.cq.database import Database
from repro.cq.query import ConjunctiveQuery
from repro.cq.yannakakis import yannakakis_boolean, yannakakis_full
from repro.widths.ghd import GeneralizedHypertreeDecomposition
from repro.widths.ghw import ghw_upper_bound


def _default_ghd(query: ConjunctiveQuery) -> GeneralizedHypertreeDecomposition:
    result = ghw_upper_bound(query.hypergraph())
    if result.decomposition is None:
        raise DecompositionMismatchError("could not build a decomposition for the query")
    return result.decomposition


def decomposition_boolean_answer(
    query: ConjunctiveQuery,
    database: Database,
    ghd: GeneralizedHypertreeDecomposition | None = None,
) -> bool:
    """BCQ through a (supplied or computed) GHD."""
    if not query.atoms:
        return True
    if ghd is None:
        ghd = _default_ghd(query)
    tree = build_bag_join_tree(query, database, ghd)
    return yannakakis_boolean(tree)


def decomposition_enumerate_answers(
    query: ConjunctiveQuery,
    database: Database,
    ghd: GeneralizedHypertreeDecomposition | None = None,
) -> set[tuple]:
    """The answer set ``q(D)`` through a GHD (projected onto the free variables)."""
    if not query.atoms:
        return {()}
    if ghd is None:
        ghd = _default_ghd(query)
    tree = build_bag_join_tree(query, database, ghd)
    if not query.free_variables:
        return {()} if yannakakis_boolean(tree) else set()
    result = yannakakis_full(tree, output_columns=query.free_variables)
    return set(result.rows)


def decomposition_count_answers(
    query: ConjunctiveQuery,
    database: Database,
    ghd: GeneralizedHypertreeDecomposition | None = None,
) -> int:
    """#CQ for *full* CQs through a GHD (Proposition 4.14's upper bound).

    Raises ``ValueError`` for non-full queries: with existential variables the
    problem is #P-hard already for acyclic queries (Pichler and Skritek), and
    the join-tree DP would count the wrong thing.
    """
    from repro.cq.counting import count_answers_via_join_tree

    if not query.is_full():
        raise ValueError("decomposition-based counting requires a full CQ")
    if not query.atoms:
        return 1
    if ghd is None:
        ghd = _default_ghd(query)
    tree = build_bag_join_tree(query, database, ghd)
    return count_answers_via_join_tree(tree)
