"""Engine sessions: batched evaluation over shared, session-scoped caches.

An :class:`EngineSession` is an :class:`~repro.engine.executor.Engine` that
additionally owns a **plan cache** and exposes a **batch API** —
:meth:`EngineSession.answer_many` and friends.  A batch call

* **deduplicates structurally-isomorphic queries** before planning: two
  queries that coincide after a variable renaming (same relations, same term
  order, same free-variable order — see :func:`canonical_query_key`) have
  identical answer sets over any shared database, so only one representative
  per class is planned and executed;
* **reuses plans** across the batch and across batches through the
  session-scoped plan cache (keyed on the query, its free-variable *order*,
  and the planning options);
* **executes the class representatives** as independent tasks through an
  :mod:`execution runtime <repro.engine.runtime>` — inline on the calling
  thread (the default), or on a pool of persistent worker *processes*.
  Plans, relations, and the query/hypergraph objects are read-only at
  execution time; the lazily memoized structures they carry (tries, key
  indexes, incidence maps) are pure and assigned atomically under the GIL,
  so concurrent callers sharing a session can only duplicate work.

The same runtime seam drives the sharded single-query path: ``answer(...,
shards=N, runtime=...)`` partitions once into **resident pieces** (a
session-scoped partition cache; each piece keeps its columnar store), then
fans the per-shard plan executions out to the chosen runtime.  With the process
runtime the pieces live on the workers between calls, so a repeated sharded
query pays join work plus a small IPC envelope — not re-partitioning,
re-scanning, or re-indexing (see ``docs/ARCHITECTURE.md`` → Execution
runtimes).

All caching is *session-scoped*: the analysis cache, the planner's core
cache, the plan cache, and the partition cache live on the session object,
never at module level.  The module-level convenience API
(``repro.engine.answer`` …) delegates to one lazily created default
session, which tests can swap out wholesale with :func:`isolated_session` /
:func:`set_default_session`.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager

from repro.cq.database import Database, shard_of
from repro.cq.query import Constant, ConjunctiveQuery
from repro.cq.statistics import join_ordering, join_record
from repro.engine.analysis import LRUCache
from repro.engine.executor import (
    Engine,
    EvalResult,
    TASK_ANSWER,
    TASK_COUNT,
    TASK_SATISFIABLE,
)
from repro.engine.planner import DEFAULT_MAX_GHD_WIDTH, Plan
from repro.engine.runtime import RuntimeTask, runtime_for
from repro.engine.sharding import (
    SHARD_MODE_SINGLE,
    ShardedDatabase,
    ShardingSpec,
    sharding_spec,
)


def canonical_query_key(query: ConjunctiveQuery):
    """A hashable key under which two queries collide exactly when one is a
    variable renaming of the other.

    For **self-join-free** queries (every relation name appears in one atom)
    the key is a true canonical form: atoms are sorted by their unique
    relation name and variables renamed by first occurrence along that fixed
    order.  Equal keys then give a variable bijection preserving relation
    names, term positions, constants, and the free-variable order — so the
    answer sets over any one database are identical and the batch layer may
    evaluate a single representative.

    Queries with self-joins fall back to an exact key (atom *set* plus the
    ordered head): canonicalising them is graph canonisation, which the
    batch path does not attempt.  Exact duplicates still deduplicate.
    """
    if query.has_self_joins():
        return ("exact", frozenset(query.atoms), query.free_variables)
    rename: dict = {}

    def term_key(term):
        if isinstance(term, Constant):
            return ("c", term.value)
        if term not in rename:
            rename[term] = len(rename)
        return ("v", rename[term])

    body = tuple(
        (atom.relation, tuple(term_key(term) for term in atom.terms))
        for atom in sorted(query.atoms, key=lambda atom: atom.relation)
    )
    head = tuple(term_key(variable) for variable in query.free_variables)
    return ("iso", body, head)


class EngineSession(Engine):
    """An engine plus session-scoped plan cache, dedup, and batch execution.

    Sessions are cheap to construct and own *all* their cache state (analysis
    cache, core cache, plan cache) — constructing a fresh session is complete
    cache isolation.  A session is safe to share across threads: every cache
    mutation happens inside :meth:`plan` or :meth:`analyze`, both of which
    serialize on the session (re-entrant) lock, and execution only reads
    plans and relations.

    The single-query API additionally accepts ``shards=N``: the query is
    evaluated per hash-shard of the database and the per-shard results are
    combined exactly (see :mod:`repro.engine.sharding` for the
    co-partitioned / broadcast / single-shard fallback ladder, which is
    recorded in the returned plan's rationale and in
    ``EvalResult.timings["sharding"]``).  ``runtime=`` — per call or as the
    session default — selects *where* the fan-out work runs: an
    :class:`~repro.engine.runtime.ExecutionRuntime` instance or a
    registered name (``"inline"``, the default, or ``"process"``).  The
    runtime decision and per-task worker timings land in the plan rationale
    and ``EvalResult.timings["runtime"]``.  The runtime only governs
    fan-out calls (``shards``/``shard_variable``/batch, or an explicit
    ``runtime=`` on a single call); the plain single-query fast path never
    pays for dispatch.
    """

    def __init__(
        self,
        max_ghd_width: int = DEFAULT_MAX_GHD_WIDTH,
        cache_size: int = 256,
        core_cache_size: int = 256,
        plan_cache_size: int = 512,
        partition_cache_size: int = 8,
        runtime=None,
    ) -> None:
        super().__init__(
            max_ghd_width=max_ghd_width,
            cache_size=cache_size,
            core_cache_size=core_cache_size,
        )
        self.plan_cache = LRUCache(plan_cache_size)
        #: Resident shard pieces per (database identity, sharding spec):
        #: partitioning is a full hash pass over the data, so a serving
        #: session pays it once and re-executes against the cached pieces —
        #: whose columnar stores stay warm, so repeated queries also skip
        #: the per-call scan/re-index of the stored tuples.
        self._partition_cache = LRUCache(partition_cache_size)
        #: The session-default runtime spec for fan-out work (``None`` =
        #: the shared inline runtime).
        self.runtime = runtime
        self._lock = threading.RLock()
        self.dedup_hits = 0
        self.batches = 0
        # Operator counters (satellite of the runtime layer): where did the
        # fan-out work go, and which rungs of the sharding ladder ran.
        self.runtime_tasks = 0
        self.runtime_calls: dict = {}
        self.runtime_workers: set = set()
        self.sharded_calls = 0
        self.sharding_modes: dict = {}
        #: Standing incremental views handed out by :meth:`incremental_view`.
        self.incremental_views = 0

    def _resolve_runtime(self, runtime):
        """The per-call runtime, falling back to the session default."""
        return runtime_for(runtime if runtime is not None else self.runtime)

    # ------------------------------------------------------------------
    def _sharded_pieces(self, database: Database, target, spec) -> list:
        """The resident pieces for ``(database, spec)``, partitioned once
        and *extended* across appends.

        Cache validity rides the version seam: the key carries the
        database's identity plus what shapes the pieces (the shard count,
        the partition columns and the broadcast set), so queries that
        partition alike share one cut; the entry records the
        :attr:`~repro.cq.database.Relation.version` of every relation the
        spec touches.  When versions have moved since the pieces were cut,
        only the ``delta_since`` rows are routed — partitioned relations
        hash each appended row to its owning piece, broadcast relations
        append to every piece — so resident pieces (and the columnar
        stores living on them) extend instead of being rebuilt.
        Versions are read *before* the rows they cover: a row appended
        while the pieces are cut or extended lies past the recorded
        version, so the next call routes it (a row the cut already took
        routes again as a no-op ``Relation.add``) instead of losing it.
        The identity check on the cached entry guards against ``id`` reuse
        after garbage collection.  The pieces are session-owned.
        """
        relevant = tuple(sorted(set(spec.partition_columns) | set(spec.broadcast_relations)))
        key = (
            id(database),
            spec.shards,
            tuple(sorted(spec.partition_columns.items())),
            spec.broadcast_relations,
        )
        with self._lock:
            entry = self._partition_cache.get(key)
            if entry is not None and entry[0] is database:
                pieces, versions = entry[1], entry[2]
                self._extend_pieces(database, pieces, versions, spec, relevant)
                return pieces
        versions = {
            name: database.relations[name].version
            for name in relevant
            if database.has_relation(name)
        }
        pieces = ShardedDatabase.partition(database, target, spec.shards, spec=spec).shards
        with self._lock:
            self._partition_cache.put(key, (database, pieces, versions))
        return pieces

    @staticmethod
    def _extend_pieces(database, pieces, versions, spec, relevant) -> None:
        """Catch resident pieces up with exactly the rows between the
        recorded and the current version of each relation (called under the
        session lock).  The version is read first, so a row appended
        meanwhile stays past it for the next call to route."""
        for name in relevant:
            if not database.has_relation(name):
                continue
            relation = database.relations[name]
            seen = versions.get(name, 0)
            version = relation.version
            if version == seen:
                continue
            delta = relation.delta_since(seen)[: version - seen]
            if name in spec.partition_columns:
                column = spec.partition_columns[name]
                shards = len(pieces)
                for row in delta:
                    pieces[shard_of(row[column], shards)].add_fact(name, row)
            else:
                for piece in pieces:
                    for row in delta:
                        piece.add_fact(name, row)
            versions[name] = version

    # ------------------------------------------------------------------
    def plan(
        self,
        query: ConjunctiveQuery,
        use_core: bool = False,
        force_strategy: str | None = None,
    ) -> Plan:
        """Plan ``query``, serving repeats from the session's plan cache.

        The key includes the free-variable *order* (answer-tuple column
        order, which ``ConjunctiveQuery.__eq__`` ignores) and both planning
        options, so a cached plan is only ever replayed for calls that would
        have produced it.

        The whole call runs under the session lock — including a miss's
        ``super().plan(...)``, which mutates the (unsynchronized) analysis
        and core caches.  Planning therefore serializes across threads; only
        execution runs concurrently, which is where the time goes.
        """
        key = (query, query.free_variables, use_core, force_strategy)
        with self._lock:
            plan = self.plan_cache.get(key)
            if plan is None:
                plan = super().plan(
                    query, use_core=use_core, force_strategy=force_strategy
                )
                self.plan_cache.put(key, plan)
            return plan

    def analyze(self, target):
        """The cached structural analysis, serialized on the session lock.

        :meth:`Engine.analyze` mutates the analysis cache with no
        synchronization — fine for a private engine, a data race on a shared
        session.  The lock is re-entrant, so the planning path (which calls
        ``analyze`` while already holding the lock inside :meth:`plan`) is
        unaffected, and direct concurrent ``analyze`` calls now serialize
        instead of corrupting the LRU structure.
        """
        with self._lock:
            return super().analyze(target)

    # ------------------------------------------------------------------
    # Single-query API: the inherited signatures plus sharded execution
    # ------------------------------------------------------------------
    def answer(
        self, query, database, plan=None, use_core=False,
        shards=1, shard_variable=None, runtime=None, cancel=None,
    ) -> EvalResult:
        """``q(D)``; with ``shards=N`` the union of exact per-shard answers.

        ``cancel`` (a :class:`~repro.engine.runtime.CancellationToken`)
        makes the call abandonable: when the token fires, in-flight fan-out
        is cancelled at the next task boundary and the call raises
        :class:`~repro.engine.runtime.RunCancelled` instead of returning —
        the seam a serving layer's request deadlines hang off.
        """
        if cancel is not None:
            cancel.raise_if_cancelled()
        if shards == 1 and shard_variable is None and runtime is None:
            return super().answer(query, database, plan=plan, use_core=use_core)
        return self._run_sharded(
            TASK_ANSWER, query, database, plan, use_core,
            shards, shard_variable, runtime, cancel,
        )

    def is_satisfiable(
        self, query, database, plan=None, use_core=False,
        shards=1, shard_variable=None, runtime=None, cancel=None,
    ) -> EvalResult:
        """BCQ; with ``shards=N`` the disjunction of the per-shard questions."""
        if cancel is not None:
            cancel.raise_if_cancelled()
        if shards == 1 and shard_variable is None and runtime is None:
            return super().is_satisfiable(query, database, plan=plan, use_core=use_core)
        return self._run_sharded(
            TASK_SATISFIABLE, query, database, plan, use_core,
            shards, shard_variable, runtime, cancel,
        )

    def count(
        self, query, database, plan=None, use_core=False,
        shards=1, shard_variable=None, runtime=None, cancel=None,
    ) -> EvalResult:
        """#CQ; with ``shards=N`` the sum of per-shard counts (shard variable
        free: answer-disjoint shards) or the size of the per-shard answer
        union (shard variable existential: shards may share projections)."""
        if cancel is not None:
            cancel.raise_if_cancelled()
        if shards == 1 and shard_variable is None and runtime is None:
            return super().count(query, database, plan=plan, use_core=use_core)
        return self._run_sharded(
            TASK_COUNT, query, database, plan, use_core,
            shards, shard_variable, runtime, cancel,
        )

    def incremental_view(self, query, database, threshold=None):
        """A standing :class:`~repro.engine.incremental.IncrementalView`
        over ``database``: call ``refresh()`` after appends to bring its
        answer set up to date in delta time (semi-naive evaluation against
        the resident atom views, with an exact full-recompute fallback when
        the delta fraction exceeds ``threshold``)."""
        from repro.engine.incremental import (
            DEFAULT_REFRESH_THRESHOLD,
            IncrementalView,
        )

        if threshold is None:
            threshold = DEFAULT_REFRESH_THRESHOLD
        view = IncrementalView(self, query, database, threshold=threshold)
        with self._lock:
            self.incremental_views += 1
        return view

    def _run_sharded(
        self, task, query, database, plan, use_core, shards, shard_variable,
        runtime, cancel=None,
    ) -> EvalResult:
        """Sharded execution: partition → per-shard plan execution → combine.

        The plan is made once (through the session plan cache); the sharding
        spec is computed against the *executed* query (``plan.query`` — the
        core under ``use_core``), since that is what runs per shard.  The
        resident pieces come from the session partition cache, and the
        per-shard plan executions fan out to the resolved
        :mod:`execution runtime <repro.engine.runtime>` — the calling
        thread, or persistent worker processes (which hold the pieces
        resident and re-plan from the shipped ``(query, use_core,
        strategy)`` triple through their own warm caches).  The results
        combine exactly:

        * answers — set union (exact for every mode: the shards jointly
          contain every fact, and each satisfying assignment survives in the
          shard of its shard-variable value);
        * satisfiability — disjunction;
        * counts — sum when the shard variable is free (the per-shard answer
          sets are disjoint: the shard-variable column of an answer tuple
          determines its shard); when it is existential, shards may project
          onto the same answer tuple, so the per-shard *answer sets* are
          unioned and counted instead (recorded as ``count_via="union"``).
        """
        if shards < 1:
            raise ValueError("shards must be >= 1")
        if plan is not None and use_core:
            raise ValueError(
                "use_core applies at planning time; pass it to plan() "
                "(or omit plan=) instead of combining it with a pre-built plan"
            )
        resolved = self._resolve_runtime(runtime)
        planning_started = time.perf_counter()
        planning = 0.0
        if plan is None:
            plan = self.plan(query, use_core=use_core)
            planning = time.perf_counter() - planning_started
        target = plan.query
        if (
            shard_variable is not None
            and shard_variable not in target.variables
            and shard_variable in query.variables
        ):
            # The core folded the requested shard variable away: the executed
            # query cannot be partitioned on it.  Fall back rather than raise —
            # the caller asked for a legal variable of *their* query.
            spec = ShardingSpec(
                shard_variable, shards, SHARD_MODE_SINGLE, {}, (),
                f"shard variable {shard_variable!r} folded away by the core: "
                "single-shard fallback",
            )
        else:
            spec = sharding_spec(target, shards, shard_variable=shard_variable)
        start = time.perf_counter()
        # Counts add across shards only when the per-shard answer sets are
        # provably disjoint: the shard variable must be free.
        count_via_sum = spec.shard_variable in target.free_variables
        if not spec.is_sharded:
            # One "shard": the database itself, the task as asked.
            pieces = [database]
            shard_task = task
        else:
            pieces = self._sharded_pieces(database, target, spec)
            # Counting with an existential shard variable must union answer
            # *sets* across shards (projections may coincide), so the shards
            # run the answer task and the combiner counts the union.
            shard_task = (
                TASK_ANSWER if task == TASK_COUNT and not count_via_sum else task
            )
        # Ship the PLAN's provenance, not the call's arguments: a pre-built
        # plan arrives with use_core=False even when it was planned for the
        # core, and a worker re-planning the full query under the core's
        # forced strategy would fail (e.g. direct Yannakakis forced on a
        # cyclic query whose *core* is acyclic).  The plan itself records
        # whether a core was substituted: its executed query differs from
        # its source query exactly then.
        ship_use_core = use_core or (
            plan.source_query is not None and plan.query != plan.source_query
        )
        tasks = [
            RuntimeTask(
                shard_task, query, piece,
                use_core=ship_use_core, force_strategy=plan.strategy,
                label=f"shard:{index}",
            )
            for index, piece in enumerate(pieces)
        ]

        def run_local(item: RuntimeTask):
            return self._run(item.task, item.query, item.database, plan, False).value

        # Inline pieces fold their join records into this call's; process
        # workers keep theirs.
        with join_record() as stats_record:
            outcomes = resolved.run(tasks, run_local, cancel=cancel)
        if cancel is not None:
            # Every runtime drains its futures before raising, so reaching
            # here with a fired token means all tasks finished anyway —
            # still honour the caller's "stop" rather than hand back a
            # result it stopped listening for.
            cancel.raise_if_cancelled()
        values = [outcome.value for outcome in outcomes]
        result = EvalResult(task=task, plan=plan)
        if not spec.is_sharded:
            if task == TASK_ANSWER:
                result.rows = values[0]
            elif task == TASK_SATISFIABLE:
                result.satisfiable = values[0]
            else:
                result.count = values[0]
        elif task == TASK_ANSWER:
            result.rows = set().union(*values)
        elif task == TASK_SATISFIABLE:
            result.satisfiable = any(values)
        elif count_via_sum:
            result.count = sum(values)
        else:
            result.count = len(set().union(*values))
        execution = time.perf_counter() - start
        per_shard_seconds = [outcome.seconds for outcome in outcomes]
        workers_used = sorted({outcome.worker for outcome in outcomes})
        sharding_record = {
            "mode": spec.mode,
            "shard_variable": spec.shard_variable,
            "shards": len(pieces),
            "requested_shards": shards,
            "per_shard_seconds": per_shard_seconds,
            "broadcast_relations": list(spec.broadcast_relations),
        }
        if task == TASK_COUNT and spec.is_sharded:
            sharding_record["count_via"] = "sum" if count_via_sum else "union"
        runtime_record = {
            "name": resolved.name,
            "tasks": len(tasks),
            "workers": workers_used,
            "per_task_seconds": per_shard_seconds,
        }
        result.plan = plan.with_note(
            f"sharding: {spec.rationale}; runtime: {resolved.name}"
        )
        stats_record["mode"] = join_ordering()
        result.timings = {
            "planning_seconds": planning,
            "execution_seconds": execution,
            "total_seconds": planning + execution,
            "sharding": sharding_record,
            "runtime": runtime_record,
            "stats": stats_record,
        }
        with self._lock:
            self.sharded_calls += 1
            self.sharding_modes[spec.mode] = self.sharding_modes.get(spec.mode, 0) + 1
            self.runtime_tasks += len(tasks)
            self.runtime_calls[resolved.name] = (
                self.runtime_calls.get(resolved.name, 0) + 1
            )
            self.runtime_workers.update(workers_used)
        return result

    # ------------------------------------------------------------------
    def answer_many(
        self,
        queries,
        database: Database,
        parallel: int = 1,
        use_core: bool = False,
        runtime=None,
        cancel=None,
    ) -> list[EvalResult]:
        """Answer a batch of queries over one database (see :meth:`_run_many`)."""
        return self._run_many(
            TASK_ANSWER, queries, database, parallel, use_core, runtime, cancel
        )

    def is_satisfiable_many(
        self, queries, database, parallel: int = 1, use_core: bool = False,
        runtime=None, cancel=None,
    ) -> list[EvalResult]:
        """BCQ over a batch of queries."""
        return self._run_many(
            TASK_SATISFIABLE, queries, database, parallel, use_core, runtime, cancel
        )

    def count_many(
        self, queries, database, parallel: int = 1, use_core: bool = False,
        runtime=None, cancel=None,
    ) -> list[EvalResult]:
        """#CQ over a batch of queries."""
        return self._run_many(
            TASK_COUNT, queries, database, parallel, use_core, runtime, cancel
        )

    def _run_many(
        self,
        task: str,
        queries,
        database: Database,
        parallel: int,
        use_core: bool,
        runtime=None,
        cancel=None,
    ) -> list[EvalResult]:
        """The batch pipeline: dedup → plan once per class → execute.

        Class representatives execute as independent tasks on the resolved
        :mod:`execution runtime <repro.engine.runtime>` (inline by default;
        on the process runtime ``parallel`` caps how many workers the
        database is replicated to, and workers re-plan each class from its
        shipped ``(query, use_core, strategy)`` triple and hold the
        database resident between batches).

        Returns one :class:`EvalResult` per input query, in input order —
        always a **distinct object per query**, even within an isomorphism
        class.  Each class is still evaluated exactly once (the point of the
        dedup pass); the duplicates receive copies that share the class's
        plan but carry their own answer payload and their own ``timings``,
        with a ``dedup_of`` marker naming the batch index of the
        representative that actually executed.  (Results used to be aliased
        across a class, so mutating one query's ``rows`` silently corrupted
        its siblings, and every duplicate re-reported the representative's
        ``execution_seconds`` as its own.)
        """
        if parallel < 1:
            raise ValueError("parallel must be >= 1")
        if cancel is not None:
            cancel.raise_if_cancelled()
        resolved = self._resolve_runtime(runtime)
        queries = [self._checked_query(query) for query in queries]
        keys = [canonical_query_key(query) for query in queries]
        representatives: dict = {}
        first_index: dict = {}
        for index, (key, query) in enumerate(zip(keys, queries)):
            representatives.setdefault(key, query)
            first_index.setdefault(key, index)
        with self._lock:
            self.batches += 1
            self.dedup_hits += len(queries) - len(representatives)
        # Planning stays sequential: it is cache-bound and mutates the
        # session caches, and one plan per *class* is already the cheap part.
        plans: dict = {}
        planning_seconds: dict = {}
        for key, query in representatives.items():
            if cancel is not None:
                cancel.raise_if_cancelled()
            planning_started = time.perf_counter()
            plans[key] = self.plan(query, use_core=use_core)
            planning_seconds[key] = time.perf_counter() - planning_started
        items = list(representatives.items())
        tasks = [
            RuntimeTask(
                task, query, database,
                use_core=use_core, force_strategy=plans[key].strategy,
                label=f"class:{first_index[key]}",
            )
            for key, query in items
        ]
        plan_of = {id(item): plans[key] for item, (key, _) in zip(tasks, items)}

        def run_local(item: RuntimeTask):
            return self._run(
                item.task, item.query, item.database, plan_of[id(item)], False
            ).value

        outcomes = resolved.run(tasks, run_local, parallel=parallel, cancel=cancel)
        if cancel is not None:
            cancel.raise_if_cancelled()
        results: dict = {}
        for (key, query), outcome in zip(items, outcomes):
            result = EvalResult(task=task, plan=plans[key])
            if task == TASK_ANSWER:
                result.rows = outcome.value
            elif task == TASK_SATISFIABLE:
                result.satisfiable = outcome.value
            else:
                result.count = outcome.value
            result.timings = {
                "planning_seconds": planning_seconds[key],
                "execution_seconds": outcome.seconds,
                "total_seconds": planning_seconds[key] + outcome.seconds,
                "runtime": {"name": resolved.name, "worker": outcome.worker},
            }
            results[key] = result
        with self._lock:
            self.runtime_tasks += len(tasks)
            self.runtime_calls[resolved.name] = (
                self.runtime_calls.get(resolved.name, 0) + 1
            )
            self.runtime_workers.update(outcome.worker for outcome in outcomes)
        return [
            results[key]
            if index == first_index[key]
            else self._dedup_copy(results[key], first_index[key])
            for index, key in enumerate(keys)
        ]

    @staticmethod
    def _dedup_copy(representative: EvalResult, representative_index: int) -> EvalResult:
        """A duplicate's result: the representative's payload in a fresh
        object.  The answer set is copied (a frozen scalar payload is shared)
        so a caller mutating one result's ``rows`` cannot corrupt the class
        siblings, and the timings say what this query actually cost — nothing
        was executed for it — plus where its payload came from."""
        return EvalResult(
            task=representative.task,
            plan=representative.plan,
            rows=set(representative.rows) if representative.rows is not None else None,
            satisfiable=representative.satisfiable,
            count=representative.count,
            timings={
                "planning_seconds": 0.0,
                "execution_seconds": 0.0,
                "total_seconds": 0.0,
                "dedup_of": representative_index,
            },
        )

    @staticmethod
    def _checked_query(query) -> ConjunctiveQuery:
        if not isinstance(query, ConjunctiveQuery):
            raise TypeError(
                f"answer_many expects ConjunctiveQuery items, got {type(query).__name__}"
            )
        return query

    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """One dict of this session's own counters: its caches' hit rates,
        dedup and batches, and where its fan-out work ran (tasks dispatched
        per runtime, workers observed, and the sharding-ladder rungs taken).

        Only what the session owns: a database reports its columnar store
        (``database.columnar_cache.info()``), a runtime its shipping
        counters (``runtime.stats()``), and the process its join-ordering
        totals (:func:`~repro.cq.statistics.ledger_snapshot`) and columnar
        memo counters (:func:`~repro.cq.columnar.memo_counters`)."""
        with self._lock:
            return {
                "analysis_cache": self.cache.info(),
                "core_cache": self.core_cache.info(),
                "plan_cache": self.plan_cache.info(),
                "partition_cache": self._partition_cache.info(),
                "dedup_hits": self.dedup_hits,
                "batches": self.batches,
                "runtime": {
                    "tasks_dispatched": self.runtime_tasks,
                    "calls_by_runtime": dict(self.runtime_calls),
                    "workers_used": sorted(self.runtime_workers),
                },
                "sharding": {
                    "calls": self.sharded_calls,
                    "by_mode": dict(self.sharding_modes),
                },
                "incremental_views": self.incremental_views,
            }

    def clear_cache(self) -> None:
        """Drop the session's own caches: analysis, core, plan and
        partitions.  A database's columnar store belongs to the database
        and stays (``database.drop_columnar()`` drops it).

        Also zeroes the hit/miss counters of each cache
        (:meth:`LRUCache.clear`): a cleared session restarts cold, and its
        post-clear hit rates must describe the fresh caches, not the
        discarded ones.
        """
        super().clear_cache()
        self.core_cache.clear()
        self.plan_cache.clear()
        with self._lock:
            self._partition_cache.clear()


# ----------------------------------------------------------------------
# The process-default session behind the module-level API
# ----------------------------------------------------------------------
_default_session: EngineSession | None = None
_default_session_lock = threading.Lock()


def default_session() -> EngineSession:
    """The lazily created session behind ``repro.engine.answer`` & friends."""
    global _default_session
    with _default_session_lock:
        if _default_session is None:
            _default_session = EngineSession()
        return _default_session


def set_default_session(session: EngineSession | None) -> EngineSession | None:
    """Replace the process-default session; returns the previous one.

    Passing ``None`` resets to "create a fresh default on next use".
    """
    global _default_session
    with _default_session_lock:
        previous = _default_session
        _default_session = session
        return previous


def restore_default_session(expected: EngineSession, previous) -> bool:
    """Compare-and-swap restore: reinstate ``previous`` only if the current
    default is still ``expected``.  Returns whether the swap happened.

    This is the exit path of :func:`isolated_session`: an unconditional
    restore would clobber a default installed *during* the block — by the
    block's own body, or by another thread — silently reviving a session
    the process had already moved away from.
    """
    global _default_session
    with _default_session_lock:
        if _default_session is not expected:
            return False
        _default_session = previous
        return True


@contextmanager
def isolated_session(**session_kwargs):
    """Run a block against a fresh default session (cache-state isolation).

    On exit the previous default comes back **only if the block's session
    is still the default** (see :func:`restore_default_session`): a default
    swapped mid-block — by the body itself or by a concurrent thread — is
    deliberately left in place rather than clobbered.

    >>> with isolated_session() as session:          # doctest: +SKIP
    ...     repro.engine.answer(query, database)     # uses `session`
    """
    session = EngineSession(**session_kwargs)
    previous = set_default_session(session)
    try:
        yield session
    finally:
        restore_default_session(session, previous)


def answer_many(
    queries, database, parallel: int = 1, use_core: bool = False, session=None,
    runtime=None,
) -> list[EvalResult]:
    """Batch ``q(D)`` through the default session (see
    :meth:`EngineSession.answer_many`)."""
    return (session or default_session()).answer_many(
        queries, database, parallel=parallel, use_core=use_core, runtime=runtime
    )
