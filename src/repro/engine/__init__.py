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
* :mod:`repro.engine.session` — :class:`EngineSession`, the engine: the
  analysis and core caches, a plan cache, execution on the plan's backend
  (of the query's :func:`canonical_form`, so renamed spellings share it),
  the batch API (:meth:`~EngineSession.answer_many`: isomorphism dedup →
  plan reuse → execution on a runtime), and sharded single-query execution
  (``answer(..., shards=N)``);
* :mod:`repro.engine.executor` — the uniform :class:`EvalResult` (payload +
  plan + timings) and the module-level :func:`answer`,
  :func:`is_satisfiable`, :func:`count`, which run on one lazily created
  default session (:func:`default_session`);
* :mod:`repro.engine.sharding` — the hash-sharding layer:
  :func:`sharding_spec` (the co-partitioned / broadcast / single-shard
  fallback ladder) and :class:`ShardedDatabase` over
  :meth:`repro.cq.database.Database.partition`;
* :mod:`repro.engine.runtime` — the execution runtimes behind the fan-out
  paths: :class:`InlineRuntime` (the default) and :class:`ProcessRuntime`
  (owner-routed persistent workers: each shard is resident on the one
  worker that owns it, shipped once in the compact columnar wire form),
  selected per call via ``runtime="inline" | "process"`` (or an
  instance);
* :mod:`repro.engine.incremental` — :class:`IncrementalView`, a standing
  query refreshed in delta time after appends: semi-naive evaluation
  (Δ⋈old + old⋈Δ + Δ⋈Δ) over the versioned storage layer's delta logs and
  the resident atom views, with an exact full-recompute fallback when the
  delta fraction exceeds :data:`DEFAULT_REFRESH_THRESHOLD`
  (:meth:`EngineSession.incremental_view`).

Each plan strategy runs on the backend that
:data:`repro.engine.backends.BACKENDS` maps it to (see
``docs/ARCHITECTURE.md``).
"""

from repro.engine.analysis import AnalysisCache, LRUCache, QueryAnalysis
from repro.engine.backends import (
    BacktrackingBackend,
    ColumnarBackend,
    EvaluationBackend,
    TrivialBackend,
    backend_for,
)
from repro.engine.executor import (
    EvalResult,
    TASK_ANSWER,
    TASK_COUNT,
    TASK_SATISFIABLE,
    answer,
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
    RunCancelled,
    RuntimeTask,
    TaskOutcome,
    registered_runtimes,
    runtime_for,
    shutdown_runtimes,
)
from repro.engine.session import (
    EngineSession,
    answer_many,
    canonical_form,
    canonical_query_key,
    default_session,
)
from repro.engine.sharding import (
    SHARD_MODE_BROADCAST,
    SHARD_MODE_COPARTITIONED,
    SHARD_MODE_SINGLE,
    ShardedDatabase,
    ShardingSpec,
    choose_shard_variable,
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

__all__ = [
    "AnalysisCache",
    "LRUCache",
    "QueryAnalysis",
    "EngineSession",
    "answer_many",
    "canonical_form",
    "canonical_query_key",
    "default_session",
    "CancellationToken",
    "RunCancelled",
    "ExecutionRuntime",
    "InlineRuntime",
    "ProcessRuntime",
    "RuntimeTask",
    "TaskOutcome",
    "RUNTIME_INLINE",
    "RUNTIME_PROCESS",
    "registered_runtimes",
    "runtime_for",
    "shutdown_runtimes",
    "SHARD_MODE_BROADCAST",
    "SHARD_MODE_COPARTITIONED",
    "SHARD_MODE_SINGLE",
    "ShardedDatabase",
    "ShardingSpec",
    "choose_shard_variable",
    "sharding_spec",
    "EvaluationBackend",
    "TrivialBackend",
    "ColumnarBackend",
    "BacktrackingBackend",
    "backend_for",
    "DEFAULT_MAX_GHD_WIDTH",
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
    "answer",
    "count",
    "is_satisfiable",
    "plan_query",
]
