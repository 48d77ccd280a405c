"""GHD-guided CQ evaluation (the Proposition 2.2 upper bound).

Given a generalised hypertree decomposition of the query's hypergraph of
width ``k``, evaluation proceeds in two stages:

1. **Bag materialisation** — for every decomposition node, join the (at
   most ``k``) relations of its cover ``lambda_u`` together with every atom
   assigned to that node, and project onto the bag.  Each bag relation has
   size at most ``||D||^k``.
2. **Acyclic evaluation** — the bag relations arranged along the
   decomposition tree form an acyclic instance equivalent to the original
   query, which Yannakakis answers in polynomial time.

This is what makes BCQ tractable for classes of bounded ghw, and (for full
CQs) what makes #CQ polynomial via the join-tree counting DP (Proposition
4.14).

These functions are the paper's interface to the scheme: they take an
explicitly supplied GHD, or compute one, and run the engine's columnar
kernel (:mod:`repro.cq.columnar`), the same code the engine's decomposition
strategies run.
"""

from __future__ import annotations

from repro.cq.bags import DecompositionMismatchError
from repro.cq.columnar import (
    columnar_boolean_answer,
    columnar_count_answers,
    columnar_enumerate_answers,
)
from repro.cq.database import Database
from repro.cq.query import ConjunctiveQuery

# The Yannakakis passes are unused here but stay bound by name:
# perfbench/tracing.py wraps them in this module's namespace.
from repro.cq.yannakakis import yannakakis_boolean, yannakakis_full  # noqa: F401
from repro.widths.ghd import GeneralizedHypertreeDecomposition
from repro.widths.ghw import ghw_upper_bound


def _decomposition(
    query: ConjunctiveQuery, ghd: GeneralizedHypertreeDecomposition | None
) -> GeneralizedHypertreeDecomposition | None:
    """The supplied GHD, or one computed for the query (none is needed
    for a query without atoms)."""
    if ghd is not None or not query.atoms:
        return ghd
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
    return columnar_boolean_answer(query, database, _decomposition(query, ghd))


def decomposition_enumerate_answers(
    query: ConjunctiveQuery,
    database: Database,
    ghd: GeneralizedHypertreeDecomposition | None = None,
) -> set[tuple]:
    """The answer set ``q(D)`` through a GHD (projected onto the free variables)."""
    return columnar_enumerate_answers(query, database, _decomposition(query, ghd))


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
    if not query.is_full():
        raise ValueError("decomposition-based counting requires a full CQ")
    return columnar_count_answers(query, database, _decomposition(query, ghd))
