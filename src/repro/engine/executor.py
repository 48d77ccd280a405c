"""The executor: the engine's single public entry point.

``answer(query, db)``, ``is_satisfiable(query, db)``, and ``count(query,
db)`` run the full analysis → plan → execute pipeline and return a uniform
:class:`EvalResult` — the answer payload plus the plan that produced it and
per-stage timings.  A caller that wants control can plan once and execute
many times by passing ``plan=`` explicitly (the plan embeds the witnessing
decomposition, so re-execution skips analysis and planning entirely).
"""

from __future__ import annotations

import time
from collections.abc import Set as AbstractSet
from dataclasses import dataclass, field

from repro.cq.database import Database
from repro.cq.query import ConjunctiveQuery
from repro.cq.statistics import join_ordering, join_record
from repro.engine.analysis import AnalysisCache, LRUCache, QueryAnalysis
from repro.engine.backends import backend_for
from repro.engine.planner import DEFAULT_MAX_GHD_WIDTH, Plan, QueryPlanner
from repro.hypergraphs.hypergraph import Hypergraph

TASK_ANSWER = "answer"
TASK_SATISFIABLE = "satisfiable"
TASK_COUNT = "count"


@dataclass
class EvalResult:
    """The uniform result of one engine call.

    Exactly one of ``rows`` / ``satisfiable`` / ``count`` is populated,
    matching ``task``; :attr:`value` returns it.  ``rows`` is a ``set``,
    except on :meth:`~repro.engine.incremental.IncrementalView.refresh`
    results, where it is a read-only
    :class:`~repro.engine.incremental.AnswerSnapshot` of the view's
    answers at that refresh (the view's live set is ``view.rows``).
    ``timings`` holds
    ``planning_seconds`` (the planning work done by *this call*: the cold
    analysis + planning cost on first sight of a query, near-zero on a
    session plan-cache hit, ``0.0`` when a pre-built plan was passed in),
    ``execution_seconds``, and ``total_seconds``.  Two optional entries are
    filled by the session's batch and sharded paths:

    * ``dedup_of`` — the batch index of the representative this result was
      deduplicated from (:meth:`EngineSession._run_many`); absent on results
      that were actually executed;
    * ``sharding`` — the sharded-execution record (mode, shard variable,
      shard count, per-shard seconds; see :attr:`sharding`);
    * ``runtime`` — where the fan-out work ran (runtime name, workers used,
      per-task worker timings; see :attr:`runtime`).
    """

    task: str
    plan: Plan
    rows: AbstractSet | None = None
    satisfiable: bool | None = None
    count: int | None = None
    timings: dict = field(default_factory=dict)

    @property
    def value(self):
        if self.task == TASK_ANSWER:
            return self.rows
        if self.task == TASK_SATISFIABLE:
            return self.satisfiable
        return self.count

    @property
    def strategy(self) -> str:
        return self.plan.strategy

    @property
    def sharding(self) -> dict | None:
        """The sharded-execution record, or ``None`` for unsharded calls.

        Filled by :meth:`EngineSession.answer` & friends when called with
        ``shards > 1``: ``mode`` (the fallback-ladder rung that ran),
        ``shard_variable``, ``shards`` (executed), ``requested_shards``,
        ``per_shard_seconds``, ``broadcast_relations``, and — for sharded
        counts — ``count_via`` (``"sum"`` when the shard variable is free,
        ``"union"`` otherwise).
        """
        return self.timings.get("sharding")

    @property
    def runtime(self) -> dict | None:
        """The execution-runtime record, or ``None`` for plain calls.

        Filled by the session's sharded and batch paths: ``name`` (the
        :mod:`~repro.engine.runtime` that executed the fan-out), plus —
        for sharded calls — ``tasks``, ``workers`` (``"inline"`` or the
        worker-process pids that ran them), and ``per_task_seconds``
        (worker-side execution time per task).
        """
        return self.timings.get("runtime")

    @property
    def stats(self) -> dict | None:
        """This call's own join record, or ``None`` when nothing ran.

        Filled whenever the execution exercised the cost-based machinery of
        :mod:`repro.cq.statistics` (always on sharded calls, where it sums
        the inline pieces): ``mode`` (the caller's join-ordering mode),
        ``cost_joins`` / ``static_joins`` (pairwise join steps taken by each
        path), and ``estimated_rows`` / ``actual_rows`` (summed cardinality
        estimates vs. the joins they predicted; equal whenever each
        cost-chosen join shares one column, where the estimate is exact).
        ``prefilter_passes`` / ``prefilter_rows_dropped`` always read 0.
        """
        return self.timings.get("stats")

    @property
    def incremental(self) -> dict | None:
        """The incremental-refresh record, or ``None`` for plain calls.

        Filled by :class:`repro.engine.incremental.IncrementalView`:
        ``mode`` (``initial`` / ``noop`` / ``incremental`` / ``full``),
        ``delta_rows`` (stored rows folded in), ``delta_fraction``,
        ``new_answers``, and ``refresh_seconds``.  Such a result's ``rows``
        is an :class:`~repro.engine.incremental.AnswerSnapshot`, not a
        ``set``: read-only, and ``rows.since(k)`` returns just the answers
        after the first ``k``.
        """
        return self.timings.get("incremental")

    def __repr__(self) -> str:
        return (
            f"EvalResult(task={self.task!r}, value={self.value!r}, "
            f"strategy={self.strategy!r})"
        )


class Engine:
    """The unified query engine: analysis → plan → execute.

    One engine owns its caches (the analysis cache and the planner's core
    cache) — no cache state is process-global.  The module-level helpers
    (:func:`answer` & friends) share the default
    :class:`~repro.engine.session.EngineSession`.  Engines are cheap —
    construct a private one to isolate cache state or change the width limit;
    construct an :class:`~repro.engine.session.EngineSession` to also get
    plan caching and the batch API.
    """

    def __init__(
        self,
        max_ghd_width: int = DEFAULT_MAX_GHD_WIDTH,
        cache_size: int = 256,
        core_cache_size: int = 256,
    ) -> None:
        self.cache = AnalysisCache(cache_size)
        self.core_cache = LRUCache(core_cache_size)
        self.planner = QueryPlanner(
            self.analyze, max_ghd_width=max_ghd_width, core_cache=self.core_cache
        )

    # ------------------------------------------------------------------
    def analyze(self, target: ConjunctiveQuery | Hypergraph) -> QueryAnalysis:
        """The (cached) structural analysis of a query or hypergraph."""
        hypergraph = target.hypergraph() if isinstance(target, ConjunctiveQuery) else target
        return self.cache.get_or_create(hypergraph)

    def plan(
        self,
        query: ConjunctiveQuery,
        use_core: bool = False,
        force_strategy: str | None = None,
    ) -> Plan:
        return self.planner.plan(query, use_core=use_core, force_strategy=force_strategy)

    def cache_info(self) -> dict:
        return self.cache.info()

    def clear_cache(self) -> None:
        self.cache.clear()

    # ------------------------------------------------------------------
    def answer(self, query, database, plan=None, use_core=False) -> EvalResult:
        """The answer set ``q(D)`` (tuples over the free variables)."""
        return self._run(TASK_ANSWER, query, database, plan, use_core)

    def is_satisfiable(self, query, database, plan=None, use_core=False) -> EvalResult:
        """BCQ: is the answer set non-empty?"""
        return self._run(TASK_SATISFIABLE, query, database, plan, use_core)

    def count(self, query, database, plan=None, use_core=False) -> EvalResult:
        """#CQ: ``|q(D)|`` for full queries, distinct projections otherwise."""
        return self._run(TASK_COUNT, query, database, plan, use_core)

    # ------------------------------------------------------------------
    def _run(
        self,
        task: str,
        query: ConjunctiveQuery,
        database: Database,
        plan: Plan | None,
        use_core: bool,
    ) -> EvalResult:
        reused_plan = plan is not None
        if reused_plan and use_core:
            raise ValueError(
                "use_core applies at planning time; pass it to plan() "
                "(or omit plan=) instead of combining it with a pre-built plan"
            )
        planning = 0.0
        if plan is None:
            # Clock the planning work *this call* did: the cold analysis +
            # planning cost on first sight of a query, near-zero when a
            # session serves the plan from its cache (the plan object's own
            # planning_seconds keeps the one-off cold cost).
            planning_started = time.perf_counter()
            plan = self.plan(query, use_core=use_core)
            planning = time.perf_counter() - planning_started
        elif plan.source_query is not None and (
            plan.source_query != query
            # __eq__ compares free variables as a set; answer tuples follow
            # their *order*, so a reordered projection is a different query.
            or plan.source_query.free_variables != query.free_variables
        ):
            # A plan built for a different query would silently return that
            # query's answers; hand-built plans (source_query=None) are exempt.
            raise ValueError(
                "the supplied plan was built for a different query; "
                "re-plan or pass the query it was planned for"
            )
        backend = backend_for(plan.strategy)
        target = plan.query
        result = EvalResult(task=task, plan=plan)
        start = time.perf_counter()
        # Solver semantics: a relation absent from the database is empty, so
        # a query mentioning it has no answers.  The ``target.atoms`` guard
        # deliberately exempts the zero-atom query — the empty conjunction
        # mentions no relation, is vacuously true, and must keep its single
        # empty-tuple answer ({()} / count 1 / satisfiable) on ANY database;
        # constants-only atoms take the normal path, where the backend checks
        # the facts.  Pinned by tests/engine/test_executor.py::TestTrivialEdgeCases.
        empty = bool(target.atoms) and any(
            not database.has_relation(atom.relation) for atom in target.atoms
        )
        with join_record() as stats_record:
            if task == TASK_ANSWER:
                result.rows = set() if empty else backend.answers(target, database, plan)
            elif task == TASK_SATISFIABLE:
                result.satisfiable = False if empty else backend.boolean(target, database, plan)
            elif task == TASK_COUNT:
                result.count = 0 if empty else backend.count(target, database, plan)
            else:
                raise ValueError(f"unknown task {task!r}")
        execution = time.perf_counter() - start
        result.timings = {
            "planning_seconds": planning,
            "execution_seconds": execution,
            "total_seconds": planning + execution,
        }
        if any(stats_record.values()):
            stats_record["mode"] = join_ordering()
            result.timings["stats"] = stats_record
        return result


def _default():
    # The default engine is the process-default *session*
    # (:mod:`repro.engine.session`); resolved lazily on every call so
    # ``isolated_session()`` / ``set_default_session()`` take effect, and
    # imported locally because session.py builds on this module.
    from repro.engine.session import default_session

    return default_session()


def answer(query, database, plan=None, use_core=False, engine=None) -> EvalResult:
    """``q(D)`` through the default session (see :class:`Engine.answer`)."""
    return (engine or _default()).answer(query, database, plan=plan, use_core=use_core)


def is_satisfiable(query, database, plan=None, use_core=False, engine=None) -> EvalResult:
    """BCQ through the default session."""
    return (engine or _default()).is_satisfiable(
        query, database, plan=plan, use_core=use_core
    )


def count(query, database, plan=None, use_core=False, engine=None) -> EvalResult:
    """#CQ through the default session."""
    return (engine or _default()).count(query, database, plan=plan, use_core=use_core)


def plan_query(query, use_core=False, force_strategy=None, engine=None) -> Plan:
    """Plan without executing (inspect strategy, witness, rationale)."""
    return (engine or _default()).plan(
        query, use_core=use_core, force_strategy=force_strategy
    )


def analyze(target, engine=None) -> QueryAnalysis:
    """The cached structural analysis of a query or hypergraph."""
    return (engine or _default()).analyze(target)


def clear_analysis_cache(engine=None) -> None:
    (engine or _default()).clear_cache()
