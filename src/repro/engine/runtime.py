"""Execution runtimes: where the engine's fan-out work runs.

The session's scaling paths — sharded single-query execution and the batch
pipeline — both end in the same shape of work: a list of *independent tasks*
(evaluate this query over this piece of data) whose results are combined
exactly.  This module owns the question of **where those tasks run**:

* :class:`InlineRuntime` — sequentially, on the calling thread.  The
  default: zero dispatch overhead.  A thread pool was never the fastest
  choice at a measured point, so there is none (``docs/PERFORMANCE.md`` →
  the fan-out decision).
* :class:`ProcessRuntime` — on **owner-routed persistent workers**: one
  single-process executor per worker index, so the coordinator controls
  exactly which worker runs which task.  Workers sidestep the GIL and keep
  warm state between calls: a per-worker
  :class:`~repro.engine.session.EngineSession` (analysis/plan caches) and a
  bounded cache of **resident databases** — shard pieces shipped once, then
  referenced by token, with their id tables, atom views and key indexes
  kept in the piece's columnar store.  A repeated
  sharded query therefore pays join work plus a small IPC envelope, not
  re-partitioning, re-scanning, or re-indexing.

Owner routing (why pool memory is O(db), not O(workers x db)):

* every dataset token is owned by one worker: the token's mint index mod
  the worker count, so the pieces of one sharded call (minted together)
  spread ±1-evenly, and every task for that token is routed to its owner —
  a piece becomes resident on exactly one worker instead of drifting onto
  all of them;
* the first submission for a token **push-ships** the piece with the task
  (the need-data round-trip survives only as a recovery path: a worker
  that lost its residency — restart, cache eviction, a delta it could not
  apply — answers ``need-data`` and the coordinator re-ships to it);
* a *batch* workload (many tasks over ONE token) would serialize on the
  owner, so multi-task tokens fan out round-robin over the owner and the
  workers that follow it (k = number of tasks, capped by the pool and the
  call's ``parallel``) — deliberate replication for parallelism, never
  accidental drift;
* on worker death only that worker's state is lost: a replacement takes
  the dead worker's index and keeps its tokens, so exactly its pieces
  re-ship and every other worker's residency is untouched.  A task that
  kills every worker it reaches fails the call after ``_SUBMIT_ATTEMPTS``
  deaths instead of respawning workers forever.

Serialization contract (what crosses the process boundary):

* **tasks** ship as ``(token, payload, task, query, use_core,
  force_strategy)`` tuples.  ``query`` is the
  :class:`~repro.cq.query.ConjunctiveQuery` itself (compact, pickles
  cleanly); the *plan* is deliberately NOT shipped — the worker re-plans
  from the same inputs through its warm session, which is cheaper than
  pickling a plan's decomposition and reproduces the coordinator's plan
  exactly because planning is deterministic.  Plans whose strategy the
  planner cannot reproduce (hand-built plans for a strategy the planner
  does not know) are rejected by the worker rather than silently
  re-routed.
* **data** ships as one form: ``payload`` is ``None`` (steady state) or
  the pickled :class:`~repro.cq.columnar.DatabaseDelta` of the rows the
  worker's copy lacks (interned-id columns over one value dictionary, plus
  the base versions the copy must hold).  The delta from ``{}`` is the
  full copy.  The worker applies it to its resident piece, or to a new
  database when it holds none, through the versioned storage API, and
  extends the piece's id tables with the shipped id columns, so its first
  query never re-interns a stored row.  The coordinator pickles each
  payload once per call, so ``shipment_bytes`` / ``delta_bytes`` account
  the exact cost and replicas reuse one encoding.
* **results** return as ``(value, seconds, pid)`` — the answer payload
  (rows / bool / count), the worker-side execution time, and the worker
  identity for the ``timings["runtime"]`` record.

``runtime_for`` resolves the two names, or passes an
:class:`ExecutionRuntime` instance through.
"""

from __future__ import annotations

import atexit
import os
import pickle
import threading
import time
import weakref
from collections import OrderedDict
from concurrent.futures import (
    FIRST_COMPLETED,
    CancelledError,
    ProcessPoolExecutor,
    wait,
)
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field

from repro.cq.columnar import DeltaMismatchError, encode_delta
from repro.cq.database import Database
from repro.cq.query import ConjunctiveQuery

RUNTIME_INLINE = "inline"
RUNTIME_PROCESS = "process"

#: How often a cancellable fan-out loop re-checks its token while waiting on
#: futures.  Only paid when a caller actually passes ``cancel=`` — plain
#: calls keep the zero-polling blocking waits.
_CANCEL_POLL_SECONDS = 0.02


class RunCancelled(RuntimeError):
    """A fan-out call was abandoned because its cancellation token fired.

    Raised *by the runtime* between tasks (a task already executing on a
    worker runs to completion — pure-Python evaluation has no preemption
    points — but its result is discarded and nothing after it starts).  The
    session lets this propagate to the caller, so a serving layer enforcing
    request deadlines sees exactly one exception type for "gave up".
    """


class CancellationToken:
    """A thread-safe, one-shot "stop now" flag threaded through fan-out.

    The serving layer creates one per request and passes it down
    ``EngineSession.answer(..., cancel=token)``; when the request's deadline
    expires it calls :meth:`cancel` from any thread, and the runtime's
    collection loop aborts the remaining tasks (cancelling queued futures,
    draining the ones already on workers) instead of running the fan-out to
    completion for a caller that stopped listening.
    """

    __slots__ = ("_event",)

    def __init__(self) -> None:
        self._event = threading.Event()

    def cancel(self) -> None:
        self._event.set()

    @property
    def cancelled(self) -> bool:
        return self._event.is_set()

    def raise_if_cancelled(self) -> None:
        if self._event.is_set():
            raise RunCancelled("fan-out cancelled by its cancellation token")

    def __repr__(self) -> str:
        return f"CancellationToken(cancelled={self.cancelled})"


@dataclass(frozen=True, eq=False)
class RuntimeTask:
    """One independent unit of fan-out work: a query task over one piece.

    ``task`` is the executor task constant (answer / satisfiable / count) to
    run **on this piece** — for sharded counting the session may hand the
    pieces the *answer* task and count the union itself.  ``use_core`` and
    ``force_strategy`` pin down planning so any runtime (in-process or
    remote) reproduces exactly the plan the session would execute.
    """

    task: str
    query: ConjunctiveQuery
    database: Database
    use_core: bool = False
    force_strategy: str | None = None
    label: str = ""


@dataclass
class TaskOutcome:
    """What one task produced, where, and how long it took."""

    value: object
    seconds: float
    worker: str


class ExecutionRuntime:
    """Interface every execution runtime implements.

    ``run`` executes every task and returns one :class:`TaskOutcome` per
    task, in task order.  ``run_local`` is the session's in-process
    evaluator (``task -> payload value``) — the inline runtime calls it
    directly; the process runtime ignores it and evaluates from the task's
    self-contained description instead.  ``parallel`` caps how many workers
    one batch token may replicate to (``None`` = the runtime's default).
    ``cancel`` is an optional :class:`CancellationToken`: when it fires
    mid-call, ``run`` must stop starting tasks, leave no orphaned futures
    behind (cancel the queued ones, drain the running ones), and raise
    :class:`RunCancelled`.

    ``close`` permanently retires the instance: it sets :attr:`closed`,
    which the shared registry (:func:`runtime_for`) checks so a closed
    runtime is never handed out again.
    """

    name = "abstract"
    #: Sticky "this instance was retired" flag — see :meth:`close`.
    closed = False

    def run(
        self,
        tasks,
        run_local,
        parallel: int | None = None,
        cancel: CancellationToken | None = None,
    ) -> list[TaskOutcome]:
        raise NotImplementedError

    def stats(self) -> dict:
        """Operator-facing counters (shape varies per runtime)."""
        return {"name": self.name}

    def close(self) -> None:
        """Release any held resources (worker processes, resident data)."""
        self.closed = True

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"


class InlineRuntime(ExecutionRuntime):
    """Sequential execution on the calling thread (no fan-out at all) — the
    default runtime."""

    name = RUNTIME_INLINE

    def run(
        self,
        tasks,
        run_local,
        parallel: int | None = None,
        cancel: CancellationToken | None = None,
    ) -> list[TaskOutcome]:
        outcomes = []
        for task in tasks:
            if cancel is not None:
                cancel.raise_if_cancelled()
            started = time.perf_counter()
            value = run_local(task)
            outcomes.append(
                TaskOutcome(value, time.perf_counter() - started, "inline")
            )
        return outcomes


class ThreadRuntime(InlineRuntime):
    """Retired name of the thread-pool runtime, which the fan-out
    measurements deleted (``docs/PERFORMANCE.md`` → the fan-out decision).
    It runs exactly like :class:`InlineRuntime`, is neither registered nor
    exported, and stays a distinct class only so tooling that binds
    ``ThreadRuntime.run`` by name (``perfbench/tracing.py``) still resolves
    without wrapping ``InlineRuntime.run`` twice."""


# ----------------------------------------------------------------------
# The process runtime: persistent workers with resident, pre-indexed data
# ----------------------------------------------------------------------
# Worker-side globals (one copy per worker process).  The session is created
# lazily INSIDE the worker so fork never leaks the coordinator's caches, and
# the resident map is bounded so a long-lived worker cannot hoard every
# dataset it ever saw.
_WORKER_SESSION = None
_WORKER_RESIDENT: OrderedDict = OrderedDict()
#: Per-worker bound on resident pieces.  Sized well above the shard counts
#: the engine is exercised at (each piece is ~1/shards of its dataset, so
#: even at the cap this is a handful of full-database equivalents); a
#: workload that overflows it degrades to re-shipping, never to errors.
_WORKER_RESIDENT_CAP = 256

_REPLY_OK = "ok"
_REPLY_NEED_DATA = "need-data"

#: Coordinator-side bound on the pieces one :class:`ProcessRuntime` tracks
#: as resident, dropped least-recently-used with their residency records.
#: It must comfortably exceed ``concurrent datasets x shards``: a sharded
#: call whose pieces overflow it re-mints tokens and re-ships every piece
#: on every call.  256 covers every engine workload.
MAX_DATASETS = 256


def _worker_session():
    global _WORKER_SESSION
    if _WORKER_SESSION is None:
        # Imported here (not at module top) to keep the import graph acyclic:
        # session.py imports this module for its default runtime resolution.
        from repro.engine.session import EngineSession

        _WORKER_SESSION = EngineSession()
    return _WORKER_SESSION


def _worker_execute(message: tuple) -> tuple:
    """Run one task message inside a pool worker (module-level: must pickle).

    ``payload`` is ``None`` (steady state: the token names a piece this
    worker holds) or pickled :class:`~repro.cq.columnar.DatabaseDelta`
    bytes, applied to the resident piece or, when the worker holds none,
    to a new :class:`~repro.cq.database.Database`.  Returns ``(_REPLY_OK,
    value, seconds, pid)``, or ``(_REPLY_NEED_DATA, token, pid)`` when the
    delta does not fit the copy (which is dropped rather than left to
    diverge) or there is nothing to run on, so the coordinator ships the
    full copy (the recovery path: residency was lost to a restart, the
    worker-side cache bound or a desync).
    """
    token, payload, task, query, use_core, force_strategy = message
    database = _WORKER_RESIDENT.pop(token, None)
    if payload is not None:
        try:
            database = pickle.loads(payload).apply(
                Database() if database is None else database
            )
        except DeltaMismatchError:
            return (_REPLY_NEED_DATA, token, os.getpid())
    if database is None:
        return (_REPLY_NEED_DATA, token, os.getpid())
    _WORKER_RESIDENT[token] = database
    while len(_WORKER_RESIDENT) > _WORKER_RESIDENT_CAP:
        _WORKER_RESIDENT.popitem(last=False)
    session = _worker_session()
    started = time.perf_counter()
    plan = session.plan(query, use_core=use_core, force_strategy=force_strategy)
    result = session._run(task, query, database, plan, False)
    return (_REPLY_OK, result.value, time.perf_counter() - started, os.getpid())


@dataclass
class _WorkerSlot:
    """One addressable worker: a single-process executor plus the
    coordinator's book-keeping about it.

    ``resident`` is the coordinator's view of what the worker holds: a map
    ``token -> {relation name: version}`` recording the storage versions
    the piece was last synced to on that worker (marked at submit time —
    submissions to one slot execute FIFO, so a later token-only task can
    never overtake the shipment in front of it).  A database whose versions
    moved past the recorded map ships the
    :class:`~repro.cq.columnar.DatabaseDelta` from them.
    ``generation`` makes recovery idempotent: every future remembers the
    generation it was submitted against, and only the first failure
    observer actually replaces the slot.
    """

    index: int
    pool: ProcessPoolExecutor
    resident: dict = field(default_factory=dict)
    generation: int = 0
    pid: int | None = None


class ProcessRuntime(ExecutionRuntime):
    """Owner-routed persistent workers with warm caches and resident shards.

    Parameters
    ----------
    max_workers:
        Worker count; defaults to ``os.cpu_count()``.  Each worker is its
        own single-process executor, so the coordinator — not the pool's
        scheduler — decides placement.  On a single-core host this
        degenerates to one worker, which measured no faster than inline.
        Workers start by ``fork`` where the platform offers it (fast
        startup, inherits loaded modules), by ``spawn`` elsewhere.

    Dataset identity: a piece is resident under a token minted for the
    database *object* (checked by identity through a weakref).  Growth
    through the versioned storage API (``add_fact`` / ``Relation.add`` —
    the only mutators; there is no removal API) keeps the token: the
    coordinator records the relation versions each worker's copy was last
    synced to, and a grown piece ships the
    :class:`~repro.cq.columnar.DatabaseDelta` of just its appended rows to
    the owning worker instead of the delta from ``{}``, the full copy
    (counted by ``delta_shipments`` / ``delta_bytes``, full copies by
    ``shipments`` / ``shipment_bytes``).  A worker whose resident copy
    cannot accept a delta (it desynced, restarted, or aged the piece out)
    answers need-data and gets a full copy.  Callers
    mutating ``Relation.tuples`` directly are off-API and on their own.

    The token map holds each served database through a **weak** reference:
    a long-lived runtime must not keep up to :data:`MAX_DATASETS` large
    databases alive after every caller dropped them (the map used to pin
    them, a real leak for a serving process cycling tenants).  The id-reuse
    hazard that pinning papered over is guarded explicitly instead: a
    token is only ever served back when the stored weakref still yields
    *the same object* — a recycled ``id()`` finds a dead (or differing)
    entry, retires its token and its residency records, and mints
    a fresh one, so a worker can never be asked to serve a stale resident
    piece for a new database that happens to reuse an address.

    Placement: tokens are minted as consecutive integers and a token's
    owner is its mint index mod ``max_workers`` — the pieces of one sharded
    call are minted together, so they spread exactly ±1-evenly — and the
    piece's full copy ships together with the first task routed to the
    owner.  The pool never
    changes size (a dead worker is replaced at its own index), so the owner
    of a token never moves.  In steady state a piece is resident on exactly
    one worker and a message carries a token, not data.
    """

    name = RUNTIME_PROCESS

    #: Attempts per task before the call gives up: a worker broken at submit
    #: time, or a worker dying under the task, is replaced and the task
    #: retried, so >1 only loses to a task that keeps killing its worker.
    _SUBMIT_ATTEMPTS = 3

    def __init__(self, max_workers: int | None = None) -> None:
        if max_workers is not None and max_workers < 1:
            raise ValueError("max_workers must be >= 1")
        self.max_workers = max_workers or max(1, os.cpu_count() or 1)
        self._slots: list[_WorkerSlot] | None = None
        self._lock = threading.Lock()
        self._datasets: OrderedDict = OrderedDict()
        self._max_datasets = MAX_DATASETS
        self._next_token = 0
        self.tasks_dispatched = 0
        self.tasks_owner_routed = 0
        self.tasks_replica_routed = 0
        self.tasks_cancelled = 0
        self.shipments = 0
        self.shipment_bytes = 0
        self.delta_shipments = 0
        self.delta_bytes = 0
        self.tokens_retired = 0
        self.recovery_reships = 0
        self.worker_restarts = 0

    # -- pool lifecycle -------------------------------------------------
    def _context(self):
        import multiprocessing

        try:
            return multiprocessing.get_context("fork")
        except ValueError:  # a platform without fork
            return multiprocessing.get_context("spawn")

    def _new_pool(self) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(max_workers=1, mp_context=self._context())

    def _ensure_slots_locked(self) -> list[_WorkerSlot]:
        if self._slots is None:
            self._slots = [
                _WorkerSlot(index, self._new_pool())
                for index in range(self.max_workers)
            ]
        return self._slots

    def _recover_worker(self, slot_index: int, generation: int) -> None:
        """Replace ONE dead worker at its own index.

        Idempotent per generation: concurrent failure observers (several
        futures of one broken worker) all call in, only the first acts.
        The replacement keeps the dead worker's tokens and starts with an
        empty residency record, so exactly the dead worker's pieces re-ship
        to it; every other worker keeps its residency.
        """
        with self._lock:
            slots = self._slots
            if slots is None:
                return
            slot = slots[slot_index]
            if slot.generation != generation:
                return
            old_pool = slot.pool
            slots[slot_index] = _WorkerSlot(
                slot_index, self._new_pool(), generation=generation + 1
            )
            self.worker_restarts += 1
        old_pool.shutdown(wait=False, cancel_futures=True)

    def close(self) -> None:
        with self._lock:
            self.closed = True
            slots, self._slots = self._slots, None
            self._datasets.clear()
        for slot in slots or ():
            slot.pool.shutdown(wait=True, cancel_futures=True)

    # -- dataset residency ----------------------------------------------
    @staticmethod
    def _versions(database: Database) -> dict:
        """The database's per-relation version map — what the shipping
        ledger records per worker so appends ship as deltas."""
        return {
            name: relation.version
            for name, relation in database.relations.items()
        }

    def _token_for(self, database: Database) -> int:
        """The stable token for ``database``, minted on first sight and
        **kept across appends** (versions are tracked per worker in the
        residency map, not in the token).  Tokens are consecutive mint
        indexes; :meth:`_owner` derives placement from them.

        The map holds only a weakref to the database (callers dropping a
        dataset must actually free it — the runtime's own call frames keep
        it alive for the duration of a ``run``).  Because the key is
        ``id(database)``, a dead entry's key can be *reached again* by a new
        database that recycles the address; the identity check below catches
        exactly that and retires the dead entry's token instead of aliasing
        it onto the newcomer.
        """
        key = id(database)
        with self._lock:
            entry = self._datasets.get(key)
            if entry is not None:
                token, ref = entry
                if ref() is database:
                    self._datasets.move_to_end(key)
                    return token
                # id reuse (or a dead ref): this is a different database
                # wearing a recycled address — never serve the old token.
                del self._datasets[key]
                self._drop_token_records_locked(token)
            token = self._next_token
            self._next_token += 1
            self._datasets[key] = (token, weakref.ref(database))
            while len(self._datasets) > self._max_datasets:
                _, (evicted, _) = self._datasets.popitem(last=False)
                self._drop_token_records_locked(evicted)
            return token

    def _drop_token_records_locked(self, token: int) -> None:
        # Tokens are never reused (monotonic counter), so dropping the
        # residency records is enough: a worker still holding the piece
        # ages it out of its own LRU.  ``tokens_retired`` keeps the
        # shipping ledger reconcilable: a retired token's shipments stay
        # counted after its residency records are gone.
        self.tokens_retired += 1
        for slot in self._slots or ():
            slot.resident.pop(token, None)

    # -- routing ---------------------------------------------------------
    def _owner(self, token: int) -> int:
        """The worker that owns ``token``: its mint index mod the pool."""
        return token % self.max_workers

    def _route(self, tokens: list[int], parallel: int | None) -> list[int]:
        """The target worker index for each task, under the ownership rule.

        Single-task tokens go to their owner.  A token with ``m > 1`` tasks
        in this call (the batch pipeline: many queries over one database)
        fans out round-robin over the owner and the workers that follow it,
        ``min(m, workers, parallel)`` of them — trading replication for
        parallelism *explicitly*; a sharded call (one task per piece) never
        replicates.
        """
        by_token: dict[int, list[int]] = {}
        for index, token in enumerate(tokens):
            by_token.setdefault(token, []).append(index)
        targets = [0] * len(tokens)
        for token, indexes in by_token.items():
            cap = min(len(indexes), self.max_workers)
            if parallel is not None:
                cap = max(1, min(cap, parallel))
            owner = self._owner(token)
            for position, index in enumerate(indexes):
                targets[index] = (owner + position % cap) % self.max_workers
        return targets

    # -- execution -------------------------------------------------------
    def run(
        self,
        tasks,
        run_local,
        parallel: int | None = None,
        cancel: CancellationToken | None = None,
    ) -> list[TaskOutcome]:
        tasks = list(tasks)
        if not tasks:
            return []
        if cancel is not None:
            cancel.raise_if_cancelled()
        tokens = [self._token_for(task.database) for task in tasks]
        targets = self._route(tokens, parallel)
        # One encoding per (token, base versions) per call: every shipment
        # of a piece from the same base in this call (replicas, recovery
        # retries, full copies from ``{}``) shares it, with the versions it
        # brings a copy to.
        blobs: dict[tuple, tuple] = {}

        def blob_for(token: int, database: Database, since: dict) -> tuple:
            key = (token, tuple(sorted(since.items())))
            entry = blobs.get(key)
            if entry is None:
                delta = encode_delta(database, since)
                entry = blobs[key] = (
                    pickle.dumps(delta, protocol=pickle.HIGHEST_PROTOCOL),
                    delta.versions(),
                )
            return entry

        outcomes: list[TaskOutcome | None] = [None] * len(tasks)
        #: future -> (task index, slot index, generation, token)
        pending: dict = {}
        #: task index -> workers lost under it in this call
        deaths: dict[int, int] = {}
        for index, (task, token, target) in enumerate(zip(tasks, tokens, targets)):
            future, meta = self._submit(index, task, token, target, False, blob_for)
            pending[future] = meta
        # Collect with a FIRST_COMPLETED loop — never in submission order —
        # so a need-data re-shipment or a death retry launches the moment
        # its reply arrives instead of queueing behind a slow unrelated
        # task's result.  With a cancellation token the wait becomes a
        # short poll so a fired token aborts within one poll interval.
        while pending:
            done, _ = wait(
                list(pending),
                return_when=FIRST_COMPLETED,
                timeout=None if cancel is None else _CANCEL_POLL_SECONDS,
            )
            if cancel is not None and cancel.cancelled:
                self._abandon(pending)
                raise RunCancelled(
                    f"process fan-out cancelled with {len(pending)} of "
                    f"{len(tasks)} tasks unfinished"
                )
            for future in done:
                index, slot_index, generation, token = pending.pop(future)
                try:
                    reply = future.result()
                except (BrokenProcessPool, CancelledError) as exc:
                    # This worker died mid-task.  Replace it (idempotently)
                    # at its own index and retry there, re-shipping to the
                    # fresh worker — unless the task keeps killing workers.
                    self._recover_worker(slot_index, generation)
                    deaths[index] = deaths.get(index, 0) + 1
                    if deaths[index] >= self._SUBMIT_ATTEMPTS:
                        self._abandon(pending)
                        raise BrokenProcessPool(
                            f"task {index} lost its worker {deaths[index]} "
                            "times; giving up on the call"
                        ) from exc
                    future, meta = self._submit(
                        index, tasks[index], token, slot_index, False, blob_for
                    )
                    pending[future] = meta
                    continue
                if reply[0] == _REPLY_NEED_DATA:
                    # Recovery path: the worker lost the piece (restart or
                    # its own cache bound).  Re-ship to the same worker.
                    with self._lock:
                        self.recovery_reships += 1
                    future, meta = self._submit(
                        index, tasks[index], token, slot_index, True, blob_for
                    )
                    pending[future] = meta
                    continue
                _, value, seconds, pid = reply
                outcomes[index] = TaskOutcome(value, seconds, f"pid:{pid}")
                with self._lock:
                    if self._slots is not None:
                        slot = self._slots[slot_index]
                        if slot.generation == generation:
                            slot.pid = pid
        with self._lock:
            self.tasks_dispatched += len(tasks)
            for token, target in zip(tokens, targets):
                if target == self._owner(token):
                    self.tasks_owner_routed += 1
                else:
                    self.tasks_replica_routed += 1
        return outcomes  # type: ignore[return-value]

    def _abandon(self, pending: dict) -> None:
        """Settle every outstanding future of a cancelled call.

        Queued futures cancel outright (single-worker pools execute FIFO, so
        a cancelled future never starts); a future already executing on a
        worker cannot be interrupted, so it is drained — the worker finishes,
        the result is discarded — which keeps the pools clean for the next
        call and leaves nothing orphaned.
        """
        for future in pending:
            future.cancel()
        running = [f for f in pending if not f.cancelled()]
        if running:
            wait(running)
            for future in running:
                # Retrieve outcomes so abandoned failures don't warn at gc.
                if not future.cancelled():
                    future.exception()
        with self._lock:
            self.tasks_cancelled += len(pending)

    def _submit(
        self,
        index: int,
        task: RuntimeTask,
        token: int,
        target: int,
        force_ship: bool,
        blob_for,
    ) -> tuple:
        """Submit one task to one worker with what the worker's copy lacks:
        the delta from ``{}``, a full copy, when the coordinator does not
        believe the piece resident there (or when ``force_ship`` says the
        worker just told us otherwise); the delta from the synced versions
        when the copy lags the database; nothing in steady state.  A broken
        worker at submit time is replaced at its index and the submission
        retried, a bounded number of times."""
        database = task.database

        def shipment(synced):
            if synced is None:
                return blob_for(token, database, {})
            if synced != self._versions(database):
                return blob_for(token, database, synced)
            return None, synced

        for attempt in range(self._SUBMIT_ATTEMPTS):
            with self._lock:
                slots = self._ensure_slots_locked()
                generation = slots[target].generation
                synced = None if force_ship else slots[target].resident.get(token)
            payload, synced_to = shipment(synced)
            try:
                with self._lock:
                    slot = slots[target]
                    if slot.generation != generation:
                        # Lost a race with recovery: re-evaluate shipping
                        # against the fresh (empty-residency) slot.
                        generation = slot.generation
                        synced = slot.resident.get(token)
                        payload, synced_to = shipment(synced)
                    future = slot.pool.submit(
                        _worker_execute,
                        (token, payload, task.task, task.query,
                         task.use_core, task.force_strategy),
                    )
                    if payload is not None:
                        slot.resident[token] = synced_to
                        if synced is None:
                            self.shipments += 1
                            self.shipment_bytes += len(payload)
                        else:
                            self.delta_shipments += 1
                            self.delta_bytes += len(payload)
                return future, (index, target, generation, token)
            except BrokenProcessPool:
                self._recover_worker(target, generation)
                force_ship = False
        raise BrokenProcessPool(
            f"worker for task {index} kept dying across "
            f"{self._SUBMIT_ATTEMPTS} submission attempts"
        )

    # -- introspection ---------------------------------------------------
    def routing(self) -> dict:
        """Snapshot of ownership: ``token -> worker index`` for every
        tracked token."""
        with self._lock:
            return {
                token: self._owner(token) for token, _ in self._datasets.values()
            }

    def residency(self) -> dict:
        """Snapshot of coordinator-side residency: ``worker index ->
        frozenset of resident tokens``."""
        with self._lock:
            return {
                slot.index: frozenset(slot.resident)
                for slot in self._slots or ()
            }

    def stats(self) -> dict:
        with self._lock:
            return {
                "name": self.name,
                "max_workers": self.max_workers,
                "pool_live": self._slots is not None,
                "resident_datasets": len(self._datasets),
                "tasks_dispatched": self.tasks_dispatched,
                "tasks_owner_routed": self.tasks_owner_routed,
                "tasks_replica_routed": self.tasks_replica_routed,
                "tasks_cancelled": self.tasks_cancelled,
                "shipments": self.shipments,
                "shipment_bytes": self.shipment_bytes,
                "delta_shipments": self.delta_shipments,
                "delta_bytes": self.delta_bytes,
                "tokens_retired": self.tokens_retired,
                "recovery_reships": self.recovery_reships,
                "worker_restarts": self.worker_restarts,
                "resident_by_worker": {
                    slot.index: len(slot.resident)
                    for slot in self._slots or ()
                },
                "worker_pids": {
                    slot.index: slot.pid for slot in self._slots or ()
                },
            }


# ----------------------------------------------------------------------
# Runtime resolution: two names, with shared lazily-created instances
# ----------------------------------------------------------------------
_FACTORIES: dict = {
    RUNTIME_INLINE: InlineRuntime,
    RUNTIME_PROCESS: ProcessRuntime,
}
_SHARED: dict[str, ExecutionRuntime] = {}
_registry_lock = threading.Lock()


def registered_runtimes() -> tuple:
    """The names every session resolves ``runtime="..."`` against."""
    return tuple(sorted(_FACTORIES))


def runtime_for(spec) -> ExecutionRuntime:
    """Resolve a runtime argument: an instance passes through; a name maps
    to one shared, lazily created instance per process (worker pools are
    expensive — sessions share them); ``None`` means the default
    :class:`InlineRuntime`.

    A shared instance that was **closed** — directly by a caller, or by the
    :func:`shutdown_runtimes` atexit hook firing early in a long-lived
    embedder — is lazily replaced with a fresh instance rather than handed
    out dead: ``close()`` marks the instance (:attr:`ExecutionRuntime
    .closed`) and resolution never returns a marked one.
    """
    if isinstance(spec, ExecutionRuntime):
        return spec
    if spec is None:
        spec = RUNTIME_INLINE
    if spec not in _FACTORIES:
        raise ValueError(
            f"unknown runtime {spec!r}; registered: {sorted(_FACTORIES)}"
        )
    with _registry_lock:
        runtime = _SHARED.get(spec)
        if runtime is None or runtime.closed:
            runtime = _FACTORIES[spec]()
            _SHARED[spec] = runtime
        return runtime


def shutdown_runtimes() -> None:
    """Close every shared runtime (atexit hook; also used by tests)."""
    with _registry_lock:
        shared = dict(_SHARED)
        _SHARED.clear()
    for runtime in shared.values():
        runtime.close()


atexit.register(shutdown_runtimes)
