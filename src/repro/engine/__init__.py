"""The unified query engine: analysis → plan → execute.

This subsystem is the single front door for conjunctive-query evaluation.
Instead of manually computing ``ghw``, building a decomposition, and picking
between ``yannakakis_*``, the ``decomposition_*_answer`` evaluators, and the
indexed backtracking solver, callers ask the engine:

>>> from repro import engine
>>> result = engine.answer(query, database)      # doctest: +SKIP
>>> result.value, result.strategy, result.plan.explain()  # doctest: +SKIP

The pipeline has three layers, each reusable on its own:

* :mod:`repro.engine.analysis` — :class:`QueryAnalysis`, memoized certified
  structure (acyclicity, join tree, ghw bounds) per query hypergraph behind
  an :class:`AnalysisCache` keyed on the hypergraph;
* :mod:`repro.engine.planner` — :class:`QueryPlanner` emitting explainable
  :class:`Plan` objects (direct-Yannakakis | GHD-guided |
  indexed-backtracking, with the witnessing decomposition and a cost
  rationale);
* :mod:`repro.engine.executor` — :class:`Engine` / the module-level
  :func:`answer`, :func:`is_satisfiable`, :func:`count`, returning a uniform
  :class:`EvalResult` (payload + plan + timings);
* :mod:`repro.engine.session` — :class:`EngineSession`, an engine plus a
  session-scoped plan cache, the batch API
  (:meth:`~EngineSession.answer_many`: isomorphism dedup → plan reuse →
  parallel execution), and sharded single-query execution
  (``answer(..., shards=N)``).  The module-level helpers delegate to one
  lazily created default session (:func:`default_session`,
  :func:`isolated_session`);
* :mod:`repro.engine.sharding` — the hash-sharding layer:
  :func:`sharding_spec` (the co-partitioned / broadcast / single-shard
  fallback ladder) and :class:`ShardedDatabase` over
  :meth:`repro.cq.database.Database.partition`;
* :mod:`repro.engine.runtime` — the execution runtimes behind the fan-out
  paths: :class:`InlineRuntime`, :class:`ThreadRuntime` (the default), and
  :class:`ProcessRuntime` (owner-routed persistent workers: each shard is
  resident on the one worker that owns it, shipped once in the compact
  columnar wire form), selected per call or per session via
  ``runtime="inline" | "thread" | "process"`` (or an instance);
* :mod:`repro.engine.incremental` — :class:`IncrementalView`, a standing
  query refreshed in delta time after appends: semi-naive evaluation
  (Δ⋈old + old⋈Δ + Δ⋈Δ) over the versioned storage layer's delta logs and
  the resident atom views, with an exact full-recompute fallback when the
  delta fraction exceeds a threshold
  (:meth:`EngineSession.incremental_view`).

Strategy backends and runtimes are both pluggable: see
:func:`repro.engine.backends.register_backend`,
:func:`repro.engine.runtime.register_runtime`, and
``docs/ARCHITECTURE.md``.
"""

from repro.engine.analysis import AnalysisCache, LRUCache, QueryAnalysis
from repro.engine.backends import (
    BacktrackingBackend,
    ColumnarBackend,
    EvaluationBackend,
    TrivialBackend,
    backend_for,
    register_backend,
    registered_strategies,
    unregister_backend,
)
from repro.engine.executor import (
    Engine,
    EvalResult,
    TASK_ANSWER,
    TASK_COUNT,
    TASK_SATISFIABLE,
    analyze,
    answer,
    clear_analysis_cache,
    count,
    is_satisfiable,
    plan_query,
)
from repro.engine.incremental import (
    DEFAULT_REFRESH_THRESHOLD,
    MODE_FULL,
    MODE_INCREMENTAL,
    MODE_INITIAL,
    MODE_NOOP,
    IncrementalView,
)
from repro.engine.runtime import (
    CancellationToken,
    ExecutionRuntime,
    InlineRuntime,
    ProcessRuntime,
    RUNTIME_INLINE,
    RUNTIME_PROCESS,
    RUNTIME_THREAD,
    RunCancelled,
    RuntimeTask,
    TaskOutcome,
    ThreadRuntime,
    register_runtime,
    registered_runtimes,
    runtime_for,
    shutdown_runtimes,
)
from repro.engine.session import (
    EngineSession,
    answer_many,
    canonical_query_key,
    default_session,
    isolated_session,
    restore_default_session,
    set_default_session,
)
from repro.engine.sharding import (
    SHARD_MODE_BROADCAST,
    SHARD_MODE_COPARTITIONED,
    SHARD_MODE_SINGLE,
    ShardedDatabase,
    ShardingSpec,
    assign_pieces,
    choose_shard_variable,
    reassign_pieces,
    rendezvous_rank,
    rendezvous_score,
    sharding_spec,
)
from repro.engine.planner import (
    DEFAULT_MAX_GHD_WIDTH,
    Plan,
    QueryPlanner,
    STRATEGY_BACKTRACKING,
    STRATEGY_GHD,
    STRATEGY_TRIVIAL,
    STRATEGY_YANNAKAKIS,
)

def __getattr__(name):
    # Backwards-compatible alias from before caches were session-scoped:
    # the "default engine" is now the process-default EngineSession.
    if name == "DEFAULT_ENGINE":
        return default_session()
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "AnalysisCache",
    "LRUCache",
    "QueryAnalysis",
    "EngineSession",
    "answer_many",
    "canonical_query_key",
    "default_session",
    "isolated_session",
    "restore_default_session",
    "set_default_session",
    "CancellationToken",
    "RunCancelled",
    "ExecutionRuntime",
    "InlineRuntime",
    "ThreadRuntime",
    "ProcessRuntime",
    "RuntimeTask",
    "TaskOutcome",
    "RUNTIME_INLINE",
    "RUNTIME_THREAD",
    "RUNTIME_PROCESS",
    "register_runtime",
    "registered_runtimes",
    "runtime_for",
    "shutdown_runtimes",
    "SHARD_MODE_BROADCAST",
    "SHARD_MODE_COPARTITIONED",
    "SHARD_MODE_SINGLE",
    "ShardedDatabase",
    "ShardingSpec",
    "assign_pieces",
    "choose_shard_variable",
    "reassign_pieces",
    "rendezvous_rank",
    "rendezvous_score",
    "sharding_spec",
    "EvaluationBackend",
    "TrivialBackend",
    "ColumnarBackend",
    "BacktrackingBackend",
    "backend_for",
    "register_backend",
    "registered_strategies",
    "unregister_backend",
    "DEFAULT_ENGINE",
    "DEFAULT_MAX_GHD_WIDTH",
    "Engine",
    "EvalResult",
    "Plan",
    "QueryPlanner",
    "STRATEGY_TRIVIAL",
    "STRATEGY_YANNAKAKIS",
    "STRATEGY_GHD",
    "STRATEGY_BACKTRACKING",
    "TASK_ANSWER",
    "TASK_SATISFIABLE",
    "TASK_COUNT",
    "analyze",
    "answer",
    "clear_analysis_cache",
    "count",
    "is_satisfiable",
    "plan_query",
]
