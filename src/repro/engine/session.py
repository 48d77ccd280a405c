"""The engine: analysis → plan → execute over session-scoped caches.

An :class:`EngineSession` analyses a query (cached per hypergraph), plans
it (cached per query; :class:`~repro.engine.planner.QueryPlanner`), and
executes the plan on the backend its strategy maps to.

A call that brings no plan plans and executes the query's **canonical
form** (:func:`canonical_form`): a self-join-free query with its atoms
sorted by relation and its variables renamed by first occurrence.  Every
spelling of one query — any variable names, any atom order, the same
free-variable order — therefore shares one plan-cache entry, one analysis
and, in the database's columnar store, one set of atom views.  Answers are
positional tuples, so they need no mapping back.  Every result carries the
cached plan itself; a caller's renaming is ``canonical_form(query)[1]``.

On top of the single-query API the session exposes a **batch API** —
:meth:`EngineSession.answer_many` and friends.  A batch call

* **deduplicates renamed queries** before planning: queries with one
  canonical form and head order (:func:`canonical_query_key`) have
  identical answer sets over any shared database, so only one representative
  per class is planned and executed;
* **reuses plans** across the batch and across batches through the
  session-scoped plan cache (keyed on the canonical form, its free-variable
  *order*, and the planning options);
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
never at module level, and their bounds are this module's ``*_CACHE_SIZE``
constants.  The module-level convenience API (``repro.engine.answer`` …)
runs on one lazily created default session (:func:`default_session`).
"""

from __future__ import annotations

import threading
import time
from operator import attrgetter

from repro.cq.database import Database
from repro.cq.query import Atom, Constant, ConjunctiveQuery
from repro.cq.statistics import join_ordering, join_record
from repro.engine.analysis import AnalysisCache, LRUCache, QueryAnalysis
from repro.engine.backends import backend_for
from repro.engine.executor import (
    EvalResult,
    TASK_ANSWER,
    TASK_COUNT,
    TASK_SATISFIABLE,
)
from repro.engine.incremental import IncrementalView
from repro.engine.planner import Plan, QueryPlanner
from repro.engine.runtime import RuntimeTask, runtime_for
from repro.engine.sharding import (
    SHARD_MODE_SINGLE,
    ShardedDatabase,
    ShardingSpec,
    sharding_spec,
)

#: Entry bounds of each session's LRU caches: structural analyses (keyed
#: on the hypergraph), query cores, plans, and resident shard-piece sets.
ANALYSIS_CACHE_SIZE = 256
CORE_CACHE_SIZE = 256
PLAN_CACHE_SIZE = 512
PARTITION_CACHE_SIZE = 8


def canonical_form(query: ConjunctiveQuery) -> tuple:
    """``(form, renaming)``: the canonical spelling of ``query``, and the
    variable renaming that carries ``query`` onto it.

    For a **self-join-free** query (every relation name appears in one atom)
    the form has its atoms sorted by their unique relation name and its
    variables renamed ``v0``, ``v1``, … by first occurrence along that
    order; its head is the caller's head, renamed, in the caller's order.
    Two queries have equal forms and head orders exactly when one is a
    variable renaming of the other, and then their answer tuples over any
    database coincide.  A query already spelled canonically is its own form
    (the same object).

    A query with self-joins is its own form, with the identity renaming:
    canonicalising it is graph canonisation, which the engine does not
    attempt.

    The pair is memoised on the query object (a query is immutable), never
    by equality: ``q.project(["x", "y"]) == q.project(["y", "x"])``, yet
    their forms differ in head order.  Each call returns its own copy of
    the renaming.
    """
    if query._canonical is None:
        query._canonical = _canonicalise(query)
    form, renaming = query._canonical
    return form, dict(renaming)


def _canonicalise(query: ConjunctiveQuery) -> tuple:
    if query.has_self_joins():
        return query, {variable: variable for variable in query.variables}
    renaming: dict = {}
    atoms = []
    for atom in sorted(query.atoms, key=attrgetter("relation")):
        terms = []
        for term in atom.terms:
            if not isinstance(term, Constant):
                if term not in renaming:
                    renaming[term] = f"v{len(renaming)}"
                term = renaming[term]
            terms.append(term)
        atoms.append(Atom(atom.relation, terms))
    head = tuple(renaming[variable] for variable in query.free_variables)
    if tuple(atoms) == query.atoms and head == query.free_variables:
        return query, renaming
    return ConjunctiveQuery(atoms, head), renaming


def canonical_query_key(query: ConjunctiveQuery) -> tuple:
    """The hashable key of :func:`canonical_form`: the form plus its head
    order (``ConjunctiveQuery`` equality compares the head as a set).  Two
    queries share a key exactly when one is a variable renaming of the
    other; a query with self-joins keeps its exact key (tag ``"exact"``)."""
    return _form_key(canonical_form(query)[0])


def _form_key(form: ConjunctiveQuery) -> tuple:
    return ("exact" if form.has_self_joins() else "iso", form, form.free_variables)


def _check_arities(query: ConjunctiveQuery, database: Database) -> None:
    """Refuse an atom of ``query`` whose term count differs from its stored
    relation's arity, naming the caller's atom: a call that runs another
    spelling would otherwise name that spelling's atom."""
    for atom in query.atoms:
        if database.has_relation(atom.relation):
            database.atom_relation(atom)


class EngineSession:
    """The query engine: cached analysis, cached plans, execution, batches.

    Sessions are cheap to construct and own *all* their cache state (analysis
    cache, core cache, plan cache, partition cache) — constructing a fresh
    session is complete cache isolation, and a cold engine is a fresh
    session.  A session is safe to share across threads: every cache
    mutation happens inside :meth:`plan` or :meth:`analyze`, both of which
    serialize on the session (re-entrant) lock, and execution only reads
    plans and relations.

    The single-query API accepts ``shards=N``: the query is evaluated per
    hash-shard of the database and the per-shard results are combined
    exactly (see :mod:`repro.engine.sharding` for the co-partitioned /
    broadcast / single-shard fallback ladder, whose rung and reason are
    recorded in ``EvalResult.timings["sharding"]``).
    ``runtime=`` selects *where* the fan-out work runs: an
    :class:`~repro.engine.runtime.ExecutionRuntime` instance or a
    registered name (``"inline"``, the default, or ``"process"``).  The
    runtime's name and per-task worker timings land in
    ``EvalResult.timings["runtime"]``.  The runtime only governs
    fan-out calls (``shards``/``shard_variable``/batch, or an explicit
    ``runtime=`` on a single call); the plain single-query fast path never
    pays for dispatch.
    """

    def __init__(self) -> None:
        self.cache = AnalysisCache(ANALYSIS_CACHE_SIZE)
        self.core_cache = LRUCache(CORE_CACHE_SIZE)
        self.planner = QueryPlanner(self.analyze, self.core_cache)
        self.plan_cache = LRUCache(PLAN_CACHE_SIZE)
        #: Resident shard pieces per (database identity, sharding spec):
        #: partitioning is a full pass over the data, so a serving
        #: session pays it once and re-executes against the cached pieces —
        #: whose columnar stores stay warm, so repeated queries also skip
        #: the per-call scan/re-index of the stored tuples.
        self._partition_cache = LRUCache(PARTITION_CACHE_SIZE)
        self._lock = threading.RLock()
        self.dedup_hits = 0
        self.batches = 0
        # Operator counters: where did the fan-out work go, and which rungs
        # of the sharding ladder ran.
        self.runtime_tasks = 0
        self.runtime_calls: dict = {}
        self.runtime_workers: set = set()
        self.sharded_calls = 0
        self.sharding_modes: dict = {}
        #: Standing incremental views handed out by :meth:`incremental_view`.
        self.incremental_views = 0

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
        send each appended row to the piece its interned id picks,
        broadcast relations append to every piece — so resident pieces
        (and the columnar stores living on them) extend instead of being
        rebuilt.  Versions are read *before* the rows they cover: a row
        appended while the pieces are cut or extended lies past the
        recorded version, so the next call routes it (a row the cut already
        took routes again as a no-op ``Relation.add``) instead of losing it.

        Ids belong to a columnar store, and a store built after
        ``drop_columnar`` may number values differently, so the entry
        records the store the cut routed by and every extension routes
        through it; a database whose store is no longer that one is cut
        again.  The identity check on the cached entry guards against
        ``id`` reuse after garbage collection.  The pieces are
        session-owned.
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
            if (
                entry is not None
                and entry[0] is database
                and entry[3] is database.columnar_cache
            ):
                _, pieces, versions, store = entry
                self._extend_pieces(database, store, pieces, versions, spec, relevant)
                return pieces
        store = database.columnar_store()
        versions = {
            name: database.relations[name].version
            for name in relevant
            if database.has_relation(name)
        }
        pieces = ShardedDatabase.partition(
            database, target, spec.shards, spec=spec, store=store
        ).shards
        with self._lock:
            self._partition_cache.put(key, (database, pieces, versions, store))
        return pieces

    @staticmethod
    def _extend_pieces(database, store, pieces, versions, spec, relevant) -> None:
        """Catch resident pieces up with exactly the rows between the
        recorded and the current version of each relation (called under the
        session lock), routing partitioned rows by their ids in ``store``.
        The version is read first, so a row appended meanwhile stays past
        it for the next call to route."""
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
                routes = store.column_ids(relation, column, seen, version) % len(pieces)
                for row, shard in zip(delta, routes.tolist()):
                    pieces[shard].add_fact(name, row)
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
        have produced it.  This plans ``query`` as spelled; the calls that
        bring no plan reach it with their query's :func:`canonical_form`.

        The whole call runs under the session lock — including a miss's
        planning, which mutates the analysis and core caches.  Planning
        therefore serializes across threads; only execution runs
        concurrently, which is where the time goes.
        """
        key = (query, query.free_variables, use_core, force_strategy)
        with self._lock:
            plan = self.plan_cache.get(key)
            if plan is None:
                plan = self.planner.plan(
                    query, use_core=use_core, force_strategy=force_strategy
                )
                self.plan_cache.put(key, plan)
            return plan

    def analyze(self, target) -> QueryAnalysis:
        """The cached structural analysis of a query or hypergraph.

        Serialized on the session lock, so concurrent calls cannot corrupt
        the LRU structure.  The lock is re-entrant: the planner reaches this
        method while :meth:`plan` already holds it.
        """
        if isinstance(target, ConjunctiveQuery):
            target = target.hypergraph()
        with self._lock:
            return self.cache.get_or_create(target)

    # ------------------------------------------------------------------
    # Single-query API
    # ------------------------------------------------------------------
    def answer(
        self, query, database, plan=None, use_core=False,
        shards=1, shard_variable=None, runtime=None, cancel=None,
    ) -> EvalResult:
        """``q(D)`` (tuples over the free variables); with ``shards=N`` the
        union of exact per-shard answers.

        ``cancel`` (a :class:`~repro.engine.runtime.CancellationToken`)
        makes the call abandonable: when the token fires, in-flight fan-out
        is cancelled at the next task boundary and the call raises
        :class:`~repro.engine.runtime.RunCancelled` instead of returning —
        the seam a serving layer's request deadlines hang off.
        """
        if cancel is not None:
            cancel.raise_if_cancelled()
        if shards == 1 and shard_variable is None and runtime is None:
            return self._run(TASK_ANSWER, query, database, plan, use_core)
        return self._run_sharded(
            TASK_ANSWER, query, database, plan, use_core,
            shards, shard_variable, runtime, cancel,
        )

    def is_satisfiable(
        self, query, database, plan=None, use_core=False,
        shards=1, shard_variable=None, runtime=None, cancel=None,
    ) -> EvalResult:
        """BCQ: is the answer set non-empty?  With ``shards=N`` the
        disjunction of the per-shard questions."""
        if cancel is not None:
            cancel.raise_if_cancelled()
        if shards == 1 and shard_variable is None and runtime is None:
            return self._run(TASK_SATISFIABLE, query, database, plan, use_core)
        return self._run_sharded(
            TASK_SATISFIABLE, query, database, plan, use_core,
            shards, shard_variable, runtime, cancel,
        )

    def count(
        self, query, database, plan=None, use_core=False,
        shards=1, shard_variable=None, runtime=None, cancel=None,
    ) -> EvalResult:
        """#CQ: ``|q(D)|`` for full queries, distinct projections otherwise.
        With ``shards=N`` the sum of per-shard counts (shard variable free:
        answer-disjoint shards) or the size of the per-shard answer union
        (shard variable existential: shards may share projections)."""
        if cancel is not None:
            cancel.raise_if_cancelled()
        if shards == 1 and shard_variable is None and runtime is None:
            return self._run(TASK_COUNT, query, database, plan, use_core)
        return self._run_sharded(
            TASK_COUNT, query, database, plan, use_core,
            shards, shard_variable, runtime, cancel,
        )

    def incremental_view(self, query, database) -> IncrementalView:
        """A standing :class:`~repro.engine.incremental.IncrementalView`
        over ``database``: call ``refresh()`` after appends to bring its
        answer set up to date in delta time (semi-naive evaluation against
        the resident atom views, with an exact full-recompute fallback when
        the delta fraction exceeds
        :data:`~repro.engine.incremental.DEFAULT_REFRESH_THRESHOLD`)."""
        view = IncrementalView(self, query, database)
        with self._lock:
            self.incremental_views += 1
        return view

    # ------------------------------------------------------------------
    def _planned(self, query, plan, use_core, database) -> tuple:
        """``(plan, planning seconds, renaming)`` for one call.

        Without a plan, the cached plan of ``query``'s canonical form;
        with one, the caller's plan after checking that it was built for a
        spelling of ``query``.  Either way the plan is returned as it is.
        ``renaming`` carries the caller's variables onto the plan's
        spelling, and is ``None`` when the two are the same."""
        if plan is None:
            form, renaming = canonical_form(query)
            plan, planning = self._plan_form(query, form, use_core, database)
            return plan, planning, None if form is query else renaming
        if use_core:
            raise ValueError(
                "use_core applies at planning time; pass it to plan() "
                "(or omit plan=) instead of combining it with a pre-built plan"
            )
        source = plan.source_query
        if source is None or source is query or (
            # __eq__ compares free variables as a set; answer tuples follow
            # their *order*, so a reordered projection is a different query.
            source == query and source.free_variables == query.free_variables
        ):
            # Hand-built plans (source_query=None) are exempt.
            return plan, 0.0, None
        form, renaming = canonical_form(query)
        source_form, source_renaming = canonical_form(source)
        if _form_key(form) != _form_key(source_form):
            # A plan built for a different query would silently return that
            # query's answers.
            raise ValueError(
                "the supplied plan was built for a different query; "
                "re-plan or pass the query it was planned for"
            )
        _check_arities(query, database)
        # The caller's variables onto the plan's, through the shared form.
        spelled = {canonical: variable for variable, canonical in source_renaming.items()}
        renaming = {variable: spelled[canonical] for variable, canonical in renaming.items()}
        return plan, 0.0, renaming

    def _plan_form(self, query, form, use_core, database) -> tuple:
        """``(plan, planning seconds)``: the cached plan of ``form``, the
        canonical form of ``query``, after refusing an atom of the wrong
        arity in the caller's own terms."""
        if form is not query:
            _check_arities(query, database)
        # Clock the planning work *this call* did: the cold analysis +
        # planning cost on first sight of a query, near-zero on a plan
        # cache hit (the plan object's own planning_seconds keeps the
        # one-off cold cost).
        started = time.perf_counter()
        plan = self.plan(form, use_core=use_core)
        return plan, time.perf_counter() - started

    def _run(
        self,
        task: str,
        query: ConjunctiveQuery,
        database: Database,
        plan: Plan | None,
        use_core: bool,
    ) -> EvalResult:
        """One unsharded call on the calling thread: plan (unless given),
        then run the plan's backend."""
        plan, planning, _ = self._planned(query, plan, use_core, database)
        backend = backend_for(plan.strategy)
        target = plan.query
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
                value = set() if empty else backend.answers(target, database, plan)
            elif task == TASK_SATISFIABLE:
                value = False if empty else backend.boolean(target, database, plan)
            elif task == TASK_COUNT:
                value = 0 if empty else backend.count(target, database, plan)
            else:
                raise ValueError(f"unknown task {task!r}")
        result = EvalResult.of(
            task, plan, value, planning, time.perf_counter() - start
        )
        if any(stats_record.values()):
            stats_record["mode"] = join_ordering()
            result.timings["stats"] = stats_record
        return result

    def _fan_out(self, jobs, use_core, runtime, cancel, parallel=None) -> tuple:
        """Run ``jobs`` — ``(task, query, database, plan, label)`` tuples,
        ``query`` spelled as the plan's — as independent tasks on the
        resolved runtime; returns the runtime and one
        :class:`~repro.engine.runtime.TaskOutcome` per job.

        In-process tasks execute their job's plan.  A process worker
        re-plans from the shipped ``(query, use_core, strategy)`` triple, so
        the triple carries the *plan's* provenance, not the call's
        arguments: a pre-built plan arrives with ``use_core=False`` even
        when it was planned for the core, and a worker re-planning the full
        query under the core's forced strategy would fail (e.g. direct
        Yannakakis forced on a cyclic query whose *core* is acyclic).  A
        plan substituted a core exactly when its executed query differs
        from its source query.
        """
        resolved = runtime_for(runtime)
        tasks = [
            RuntimeTask(
                task, query, database,
                use_core=use_core or (
                    plan.source_query is not None and plan.query != plan.source_query
                ),
                force_strategy=plan.strategy,
                label=label,
            )
            for task, query, database, plan, label in jobs
        ]
        plan_of = {id(item): plan for item, (_, _, _, plan, _) in zip(tasks, jobs)}

        def run_local(item: RuntimeTask):
            return self._run(
                item.task, item.query, item.database, plan_of[id(item)], False
            ).value

        outcomes = resolved.run(tasks, run_local, parallel=parallel, cancel=cancel)
        if cancel is not None:
            # Every runtime drains its futures before raising, so reaching
            # here with a fired token means all tasks finished anyway —
            # still honour the caller's "stop" rather than hand back a
            # result it stopped listening for.
            cancel.raise_if_cancelled()
        with self._lock:
            self.runtime_tasks += len(tasks)
            self.runtime_calls[resolved.name] = (
                self.runtime_calls.get(resolved.name, 0) + 1
            )
            self.runtime_workers.update(outcome.worker for outcome in outcomes)
        return resolved, outcomes

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
        resident and re-plan through their own warm caches).  The results
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
        plan, planning, renaming = self._planned(query, plan, use_core, database)
        target = plan.query
        # The spelling the plan was made for; the shard variable is renamed
        # onto it, and the record names the caller's variable again.
        spelled, variable = query, shard_variable
        if renaming is not None:
            spelled = plan.source_query
            if shard_variable is not None:
                if shard_variable not in renaming:
                    raise ValueError(
                        f"shard variable {shard_variable!r} does not occur in the query"
                    )
                variable = renaming[shard_variable]
        if (
            variable is not None
            and variable not in target.variables
            and variable in spelled.variables
        ):
            # The core folded the requested shard variable away: the executed
            # query cannot be partitioned on it.  Fall back rather than raise —
            # the caller asked for a legal variable of *their* query.
            spec = ShardingSpec(
                variable, shards, SHARD_MODE_SINGLE, {}, (),
                f"shard variable {shard_variable!r} folded away by the core: "
                "single-shard fallback",
            )
        else:
            spec = sharding_spec(target, shards, shard_variable=variable)
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
        jobs = [
            (shard_task, spelled, piece, plan, f"shard:{index}")
            for index, piece in enumerate(pieces)
        ]
        # Inline pieces fold their join records into this call's; process
        # workers keep theirs.
        with join_record() as stats_record:
            resolved, outcomes = self._fan_out(jobs, use_core, runtime, cancel)
        values = [outcome.value for outcome in outcomes]
        if not spec.is_sharded:
            value = values[0]
        elif task == TASK_ANSWER:
            value = set().union(*values)
        elif task == TASK_SATISFIABLE:
            value = any(values)
        elif count_via_sum:
            value = sum(values)
        else:
            value = len(set().union(*values))
        result = EvalResult.of(task, plan, value, planning, time.perf_counter() - start)
        per_shard_seconds = [outcome.seconds for outcome in outcomes]
        caller_names = {spelt: name for name, spelt in (renaming or {}).items()}
        sharding_record = {
            "mode": spec.mode,
            "shard_variable": caller_names.get(spec.shard_variable, spec.shard_variable),
            "shards": len(pieces),
            "requested_shards": shards,
            "per_shard_seconds": per_shard_seconds,
            "broadcast_relations": list(spec.broadcast_relations),
            "rationale": spec.rationale,
        }
        if task == TASK_COUNT and spec.is_sharded:
            sharding_record["count_via"] = "sum" if count_via_sum else "union"
        stats_record["mode"] = join_ordering()
        result.timings["sharding"] = sharding_record
        result.timings["runtime"] = {
            "name": resolved.name,
            "tasks": len(outcomes),
            "workers": sorted({outcome.worker for outcome in outcomes}),
            "per_task_seconds": per_shard_seconds,
        }
        result.timings["stats"] = stats_record
        with self._lock:
            self.sharded_calls += 1
            self.sharding_modes[spec.mode] = self.sharding_modes.get(spec.mode, 0) + 1
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

        A class is a canonical form and head order
        (:func:`canonical_query_key`); each class runs its form, as a single
        call would.  Class representatives execute as independent tasks on
        the resolved :mod:`execution runtime <repro.engine.runtime>` (inline
        by default; on the process runtime ``parallel`` caps how many
        workers the database is replicated to, and workers re-plan each
        class from its shipped ``(query, use_core, strategy)`` triple and
        hold the database resident between batches).

        Returns one :class:`EvalResult` per input query, in input order —
        always a **distinct object per query**, even within an isomorphism
        class.  Each class is still evaluated exactly once (the point of the
        dedup pass); the duplicates receive copies that share the class's
        cached plan but carry their own answer payload and their own
        ``timings``, with a ``dedup_of`` marker naming the batch index of
        the representative that actually executed.  (Results used to be
        aliased across a class, so mutating one query's ``rows`` silently
        corrupted its siblings, and every duplicate re-reported the
        representative's ``execution_seconds`` as its own.)
        """
        if parallel < 1:
            raise ValueError("parallel must be >= 1")
        if cancel is not None:
            cancel.raise_if_cancelled()
        queries = [self._checked_query(query) for query in queries]
        # One canonical form per query, for the dedup key and the plan.
        forms = [canonical_form(query) for query in queries]
        keys = [_form_key(form) for form, _ in forms]
        first_index: dict = {}
        for index, key in enumerate(keys):
            first_index.setdefault(key, index)
        with self._lock:
            self.batches += 1
            self.dedup_hits += len(queries) - len(first_index)
        # Planning stays sequential: it is cache-bound and mutates the
        # session caches, and one plan per *class* is already the cheap part.
        planned: dict = {}
        for key, index in first_index.items():
            if cancel is not None:
                cancel.raise_if_cancelled()
            planned[key] = self._plan_form(
                queries[index], forms[index][0], use_core, database
            )
        jobs = [
            (task, forms[index][0], database, planned[key][0], f"class:{index}")
            for key, index in first_index.items()
        ]
        resolved, outcomes = self._fan_out(
            jobs, use_core, runtime, cancel, parallel=parallel
        )
        results: dict = {}
        for key, outcome in zip(first_index, outcomes):
            plan, planning = planned[key]
            result = EvalResult.of(task, plan, outcome.value, planning, outcome.seconds)
            result.timings["runtime"] = {
                "name": resolved.name,
                "worker": outcome.worker,
            }
            results[key] = result
        copies = []
        for index, key in enumerate(keys):
            first = first_index[key]
            if index == first:
                copies.append(results[key])
            else:
                copies.append(self._dedup_copy(results[key], first))
        return copies

    @staticmethod
    def _dedup_copy(representative: EvalResult, representative_index: int) -> EvalResult:
        """A duplicate's result: the representative's payload and plan in a
        fresh object.  The answer set is copied (a frozen scalar payload is
        shared) so a caller mutating one result's ``rows`` cannot corrupt
        the class siblings, and the timings say what this query actually
        cost — nothing was executed for it — plus where its payload came
        from."""
        value = representative.value
        if representative.task == TASK_ANSWER:
            value = set(value)
        result = EvalResult.of(representative.task, representative.plan, value, 0.0, 0.0)
        result.timings["dedup_of"] = representative_index
        return result

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
        with self._lock:
            self.cache.clear()
            self.core_cache.clear()
            self.plan_cache.clear()
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


def answer_many(
    queries, database, parallel: int = 1, use_core: bool = False, runtime=None,
) -> list[EvalResult]:
    """Batch ``q(D)`` through the default session (see
    :meth:`EngineSession.answer_many`)."""
    return default_session().answer_many(
        queries, database, parallel=parallel, use_core=use_core, runtime=runtime
    )
