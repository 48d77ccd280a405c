"""The query planner: certified structure in, explainable execution plan out.

Dispatch mirrors how width-aware systems (HyperBench-style) pick evaluation
routes:

* **acyclic** query hypergraph (GYO join tree exists) — direct Yannakakis on
  the width-1 join tree; no decomposition search is ever invoked;
* **cyclic with certified ghw within the width limit** — GHD-guided
  evaluation (Proposition 2.2): bag materialisation costs
  ``O(||D||^k)`` for the certified width ``k``, then Yannakakis;
* otherwise — the indexed-backtracking solver
  (:mod:`repro.cq.homomorphism`), whose cost is not structure-bounded but
  whose constants are small.

Every :class:`Plan` carries the witnessing decomposition and a human-readable
cost rationale, so a caller can always ask *why* a strategy was chosen.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

from repro.cq.query import ConjunctiveQuery
from repro.engine.analysis import LRUCache, QueryAnalysis
from repro.widths.ghd import GeneralizedHypertreeDecomposition

STRATEGY_TRIVIAL = "trivial"
STRATEGY_YANNAKAKIS = "direct-yannakakis"
STRATEGY_GHD = "ghd-guided"
STRATEGY_BACKTRACKING = "indexed-backtracking"

#: Widest GHD the planner will evaluate through: bag materialisation costs
#: ``O(||D||^k)``, so beyond a small ``k`` the indexed backtracking solver is
#: the safer choice on real databases.
DEFAULT_MAX_GHD_WIDTH = 3


@dataclass(frozen=True)
class Plan:
    """An explainable execution plan for one conjunctive query.

    ``query`` is the query the executor will actually run — normally the
    input query, but the core when semantic planning (``use_core=True``)
    found a strictly smaller equivalent.  A plan is immutable: the session
    caches it and hands the same object to every call and thread it serves.
    """

    strategy: str
    query: ConjunctiveQuery
    analysis: QueryAnalysis | None
    decomposition: GeneralizedHypertreeDecomposition | None
    width: int | None
    rationale: str
    planning_seconds: float = field(default=0.0, compare=False)
    #: The query plan() was called with (= ``query`` unless semantic planning
    #: substituted the core).  The executor uses it to reject a plan passed
    #: alongside a different query.  ``None`` for hand-built plans.
    source_query: ConjunctiveQuery | None = None

    def explain(self) -> str:
        """A human-readable account of the plan (strategy, witness, why)."""
        lines = [f"strategy: {self.strategy}"]
        if self.width is not None:
            lines.append(f"certified width: {self.width}")
        if self.decomposition is not None:
            lines.append(
                f"decomposition: {len(self.decomposition.bags)} bags, "
                f"width {self.decomposition.width()}"
            )
        lines.append(f"rationale: {self.rationale}")
        return "\n".join(lines)


class QueryPlanner:
    """Turns a query (via its memoized analysis) into a :class:`Plan`.

    Parameters
    ----------
    analyze:
        Callable mapping a hypergraph to a :class:`QueryAnalysis` (the
        session's cached analysis pass).
    core_cache:
        The owning session's :class:`~repro.engine.analysis.LRUCache`
        memoizing core minimisation — the expensive part of semantic
        planning (retraction searches).

    The GHD-guided strategy is preferred over indexed backtracking up to a
    certified ghw upper bound of :data:`DEFAULT_MAX_GHD_WIDTH`.
    """

    def __init__(self, analyze, core_cache: LRUCache) -> None:
        self._analyze = analyze
        self._core_cache = core_cache

    def plan(
        self,
        query: ConjunctiveQuery,
        use_core: bool = False,
        force_strategy: str | None = None,
    ) -> Plan:
        """Plan the evaluation of ``query``.

        ``use_core=True`` first minimises the query to its core (semantic
        width route, Section 4.3): the core is equivalent and fixes the free
        variables, so answers, satisfiability, and counts are unchanged while
        the structure — and hence the strategy — may improve.
        ``force_strategy`` bypasses dispatch (used by benchmarks and demos to
        compare strategies on the same instance).
        """
        start = time.perf_counter()
        target = query
        semantic_note = ""
        if use_core and query.atoms:
            core = self._core_of(query)
            if len(core.atoms) < len(query.atoms):
                target = core
                semantic_note = (
                    f"; planning for the core ({len(core.atoms)} of "
                    f"{len(query.atoms)} atoms — equivalent, sem-ghw route)"
                )
        plan = self._dispatch(target, semantic_note, force_strategy)
        return replace(
            plan, planning_seconds=time.perf_counter() - start, source_query=query
        )

    def _core_of(self, query: ConjunctiveQuery) -> ConjunctiveQuery:
        # ConjunctiveQuery.__eq__ compares free variables as a *set*, but the
        # core inherits their *order* (answer-tuple column order): include the
        # ordered head in the key so reordered projections never share a core.
        key = (query, query.free_variables)
        core = self._core_cache.get(key)
        if core is None:
            from repro.cq.core import core_of

            core = core_of(query)
            self._core_cache.put(key, core)
        return core

    def _dispatch(
        self, query: ConjunctiveQuery, note: str, force_strategy: str | None
    ) -> Plan:
        if not query.atoms:
            if force_strategy is not None and force_strategy != STRATEGY_TRIVIAL:
                raise ValueError(
                    f"cannot force strategy {force_strategy!r} on an atom-less "
                    "query (only the trivial strategy applies)"
                )
            return Plan(
                STRATEGY_TRIVIAL, query, None, None, None,
                "no atoms: the empty conjunction is vacuously true" + note,
            )
        analysis = self._analyze(query.hypergraph())
        if force_strategy is not None:
            return self._forced(query, analysis, note, force_strategy)
        if analysis.join_tree is not None:
            return Plan(
                STRATEGY_YANNAKAKIS, query, analysis, analysis.join_tree, 1,
                "acyclic (GYO join tree exists): direct Yannakakis, "
                "no decomposition search needed" + note,
            )
        if analysis.is_acyclic:
            # Acyclic but no join tree: every hyperedge is empty (all atoms
            # constant-only), so there is nothing to decompose — the indexed
            # solver simply checks the facts.
            return Plan(
                STRATEGY_BACKTRACKING, query, analysis, None, None,
                "no non-empty edge (constant-only atoms): nothing to "
                "decompose, indexed backtracking checks the facts" + note,
            )
        # The certified bound is only known after the search; the result is
        # memoized on the analysis, so a high-width structure pays it once
        # and forced-GHD plans reuse the witness.
        bounds = analysis.ghw_bounds
        if bounds.decomposition is not None and bounds.upper <= DEFAULT_MAX_GHD_WIDTH:
            return Plan(
                STRATEGY_GHD, query, analysis, bounds.decomposition, bounds.upper,
                f"cyclic with certified ghw <= {bounds.upper} "
                f"(width limit {DEFAULT_MAX_GHD_WIDTH}): GHD-guided evaluation, "
                f"bag materialisation in O(||D||^{bounds.upper}) (Prop. 2.2)" + note,
            )
        return Plan(
            STRATEGY_BACKTRACKING, query, analysis, None, None,
            f"no decomposition within the width limit {DEFAULT_MAX_GHD_WIDTH} "
            f"(certified ghw upper bound {bounds.upper}): "
            "indexed-backtracking fallback" + note,
        )

    def _forced(
        self, query: ConjunctiveQuery, analysis: QueryAnalysis, note: str, strategy: str
    ) -> Plan:
        rationale = f"strategy forced by the caller{note}"
        if strategy == STRATEGY_TRIVIAL:
            raise ValueError(
                "the trivial strategy only applies to atom-less queries"
            )
        if strategy == STRATEGY_YANNAKAKIS:
            if analysis.join_tree is None:
                raise ValueError(
                    "cannot force direct Yannakakis: the query hypergraph is "
                    "not acyclic (no join tree exists)"
                )
            return Plan(strategy, query, analysis, analysis.join_tree, 1, rationale)
        if strategy == STRATEGY_GHD:
            decomposition = (
                analysis.join_tree
                if analysis.join_tree is not None
                else analysis.ghw_bounds.decomposition
            )
            if decomposition is None:
                raise ValueError("cannot force GHD evaluation: no decomposition found")
            return Plan(
                strategy, query, analysis, decomposition, decomposition.width(), rationale
            )
        if strategy == STRATEGY_BACKTRACKING:
            return Plan(strategy, query, analysis, None, None, rationale)
        raise ValueError(f"unknown strategy {strategy!r}")
