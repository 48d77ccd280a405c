"""The query service front door: an asyncio HTTP/JSON API over EngineSession.

Topology (one request, left to right)::

    client ──HTTP──► connection loop ──► Router ──► admission control
                                                   (bounded queue, shed 503)
                 ◄── JSON response ◄── deadline guard ◄── engine executor
                                                        (thread pool; one
                                                   tenant-private session)

* **Front door** — stdlib asyncio streams speaking minimal HTTP/1.1
  (:mod:`repro.service.http`); the event loop only parses, routes, and
  serializes — every engine call runs on the executor thread pool so the
  loop keeps accepting connections while queries evaluate.
* **Admission** — :class:`~repro.service.admission.AdmissionController`:
  ``max_concurrent`` requests execute, ``max_queue`` wait, the rest get an
  immediate ``503`` with ``Retry-After``.
* **Tenancy** — :class:`~repro.service.tenancy.TenantSessions` resolves the
  request's tenant to its private :class:`~repro.engine.session
  .EngineSession` (cache isolation) and its own dataset namespace.
* **Deadlines** — :mod:`repro.service.deadlines`: on expiry the request's
  :class:`~repro.engine.runtime.CancellationToken` fires and the engine
  fan-out (shards / batch) cancels at the next task boundary; the admission
  slot is held until the engine call actually unwinds.
* **Metrics** — ``GET /stats`` returns the service counters plus every
  tenant session's own engine counters (cache hit rates, fan-out tasks per
  runtime, sharding modes) as one JSON document.

Endpoints: ``POST /answer`` | ``/count`` | ``/is_satisfiable`` |
``/batch``, ``GET /stats`` | ``/healthz``; the write path adds
``POST /facts`` (append rows to a registered dataset — the versioned
storage layer propagates the delta to every resident cache) and standing
queries: ``POST /subscriptions`` registers a CQ over a dataset, each
``GET /subscriptions/{id}`` poll refreshes it incrementally
(:class:`~repro.engine.incremental.IncrementalView`) and returns only the
answers derived since the last poll, ``DELETE /subscriptions/{id}`` tears
it down.  Request payloads reference a registered dataset
(``{"dataset": "name"}``) or carry an inline database; bodyless requests
name their tenant via the ``X-Tenant`` header.  See
:mod:`repro.service.codec` for the wire format and
``docs/ARCHITECTURE.md`` for the topology discussion.
"""

from __future__ import annotations

import asyncio
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial

from repro.engine.runtime import CancellationToken, RunCancelled, runtime_for
from repro.service.admission import AdmissionController, Overloaded
from repro.service.codec import (
    CodecError,
    database_from_json,
    facts_from_json,
    query_from_json,
    result_to_json,
    rows_to_json,
)
from repro.service.deadlines import DeadlineExceeded, deadline_seconds, guard
from repro.service.http import HttpError, Request, Response, Router, read_request
from repro.service.metrics import ServiceMetrics
from repro.service.subscriptions import SubscriptionRegistry, UnknownSubscription
from repro.service.tenancy import (
    DEFAULT_TENANT,
    DatasetRegistry,
    TenantSessions,
    UnknownDataset,
)

_TASK_METHODS = {
    "answer": ("answer", "answer_many"),
    "count": ("count", "count_many"),
    "is_satisfiable": ("is_satisfiable", "is_satisfiable_many"),
}


@dataclass
class ServiceConfig:
    host: str = "127.0.0.1"
    #: 0 = pick a free port (the bound port lands on ``QueryService.port``).
    port: int = 0
    #: Concurrent engine calls (= executor threads).
    max_concurrent: int = 8
    #: Requests allowed to wait for an executor slot before shedding.
    max_queue: int = 32
    retry_after_seconds: float = 1.0
    #: Service-wide default deadline; ``None`` = no deadline unless the
    #: request sets ``deadline_ms``.
    default_deadline_seconds: float | None = None
    max_tenants: int = 64
    max_body_bytes: int = 8 * 1024 * 1024
    max_batch_queries: int = 1024
    #: Enables the ``_sleep_ms`` request field (deterministic slow requests
    #: for tests and load harnesses).  Never enable in production.
    debug_hooks: bool = False


class QueryService:
    """The service: construct, :meth:`register_dataset`, then serve.

    Serving options: ``await start()`` inside an existing event loop (tests
    drive it this way through :func:`serve_in_thread`), or
    :meth:`run_forever` as a blocking main.
    """

    def __init__(self, config: ServiceConfig | None = None):
        self.config = config or ServiceConfig()
        self.sessions = TenantSessions(self.config.max_tenants)
        self.datasets = DatasetRegistry()
        self.admission = AdmissionController(
            self.config.max_concurrent,
            self.config.max_queue,
            self.config.retry_after_seconds,
        )
        self.metrics = ServiceMetrics()
        self._executor = ThreadPoolExecutor(
            max_workers=self.config.max_concurrent,
            thread_name_prefix="repro-service",
        )
        self._server: asyncio.AbstractServer | None = None
        self.port: int | None = None
        #: Open connections: each handler task and its stream writer, or
        #: ``None`` while the handler holds a parsed request.
        self._connections: dict[asyncio.Task, asyncio.StreamWriter | None] = {}
        #: Set by :meth:`stop`: a handler answers the request it holds with
        #: ``Connection: close`` and ends.
        self._stopping = False
        self._router = Router()
        self.subscriptions = SubscriptionRegistry()
        #: Serializes dataset appends (``POST /facts``): each request's rows
        #: land atomically with respect to other appends, and the versioned
        #: storage layer makes every append visible to later refreshes.
        self._append_lock = threading.Lock()
        self._router.add("GET", "/healthz", self._handle_healthz)
        self._router.add("GET", "/stats", self._handle_stats)
        self._router.add("POST", "/batch", self._handle_batch)
        self._router.add("POST", "/facts", self._handle_facts)
        self._router.add("POST", "/subscriptions", self._handle_subscribe)
        self._router.add("GET", "/subscriptions/{id}", self._handle_poll)
        self._router.add(
            "DELETE", "/subscriptions/{id}", self._handle_unsubscribe
        )
        for task in _TASK_METHODS:
            self._router.add("POST", f"/{task}", partial(self._handle_single, task))

    # -- datasets --------------------------------------------------------
    def register_dataset(self, name: str, database, tenant: str = DEFAULT_TENANT):
        """Make ``database`` queryable as ``{"dataset": name}`` for
        ``tenant``.  Served databases are append-only: ``POST /facts`` may
        grow them (never shrink); repeated queries reuse the database's
        columnar views, which read appended rows off its id tables."""
        self.datasets.register(tenant, name, database)
        return self

    # -- lifecycle -------------------------------------------------------
    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        """Stop serving; returns once every connection handler has finished.

        Closing the listening socket leaves keep-alive connections open.
        Each idle one is closed here, so its handler reads EOF and returns;
        a handler holding a parsed request answers it with ``Connection:
        close`` and returns, so admitted work reaches its client.  Accepting
        stops first: the listening sockets leave the selector, and one loop
        turn lets every connection already accepted attach its transport
        (on Python 3.11 one attached after ``Server.close()`` fails an
        assertion and is never answered or closed).  A connection accepted
        just before the close starts its handler a few loop iterations
        later, so closing and waiting repeat until a pass finds none.
        """
        self._stopping = True
        if self._server is not None:
            loop = asyncio.get_running_loop()
            for listener in self._server.sockets:
                loop.remove_reader(listener.fileno())
            await asyncio.sleep(0)
            self._server.close()
            while True:
                await asyncio.sleep(0.01)
                if not self._connections:
                    break
                for writer in self._connections.values():
                    if writer is not None:
                        writer.close()
                await asyncio.gather(*self._connections, return_exceptions=True)
            await self._server.wait_closed()
            self._server = None
        self._executor.shutdown(wait=True, cancel_futures=True)

    def run_forever(self) -> None:  # pragma: no cover - interactive entry
        async def main():
            await self.start()
            print(f"repro query service on http://{self.config.host}:{self.port}")
            await asyncio.Event().wait()

        asyncio.run(main())

    # -- connection loop -------------------------------------------------
    async def _handle_connection(self, reader, writer) -> None:
        task = asyncio.current_task()
        self._connections[task] = writer
        try:
            while True:
                try:
                    request = await read_request(reader, self.config.max_body_bytes)
                except HttpError as exc:
                    writer.write(
                        Response.error(exc.status, exc.message).encode(False)
                    )
                    await writer.drain()
                    return
                if request is None:
                    return
                self._connections[task] = None
                started = time.perf_counter()
                try:
                    response = await self._router.dispatch(request)
                except HttpError as exc:
                    response = Response.error(exc.status, exc.message)
                except (UnknownDataset, UnknownSubscription) as exc:
                    # KeyError's str() wraps its message in quotes; args[0]
                    # is the clean text.
                    response = Response.error(404, exc.args[0])
                except CodecError as exc:
                    response = Response.error(400, str(exc))
                except Exception as exc:  # a handler bug must answer, not hang
                    response = Response.error(500, f"internal error: {exc!r}")
                self.metrics.record(
                    request.path, response.status, time.perf_counter() - started
                )
                keep_alive = not (request.wants_close or self._stopping)
                writer.write(response.encode(keep_alive))
                await writer.drain()
                if not keep_alive or self._stopping:
                    return
                self._connections[task] = writer
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (Exception, asyncio.CancelledError):
                # Closing is best effort, and the handler must not end
                # cancelled: asyncio's stream callback reads the task's
                # exception, which on Python 3.11 raises (and is logged)
                # for a cancelled task.
                pass
            del self._connections[task]

    # -- endpoint handlers ----------------------------------------------
    async def _handle_healthz(self, request: Request) -> Response:
        return Response(200, {"status": "ok", "in_flight": self.admission.in_flight})

    async def _handle_stats(self, request: Request) -> Response:
        # Deliberately unthrottled: observability must survive saturation.
        return Response(
            200,
            {
                "service": self.metrics.snapshot(),
                "admission": self.admission.stats(),
                "tenant_pool": self.sessions.info(),
                "tenants": self.sessions.stats(),
                "datasets": self.datasets.by_tenant(),
                "subscriptions": self.subscriptions.stats(),
                "config": {
                    "max_concurrent": self.config.max_concurrent,
                    "max_queue": self.config.max_queue,
                    "default_deadline_seconds": self.config.default_deadline_seconds,
                },
            },
        )

    async def _handle_single(self, task: str, request: Request) -> Response:
        payload = self._payload(request)
        query = query_from_json(self._field(payload, "query"))
        session, database = self._context(payload, request)
        options = self._options(payload)
        method = getattr(session, _TASK_METHODS[task][0])
        call = partial(
            method,
            query,
            database,
            shards=options["shards"],
            shard_variable=options["shard_variable"],
            runtime=options["runtime"],
            use_core=options["use_core"],
        )
        return await self._execute(payload, call, result_to_json)

    async def _handle_batch(self, request: Request) -> Response:
        payload = self._payload(request)
        task = payload.get("task", "answer")
        if task not in _TASK_METHODS:
            raise HttpError(
                400, f"batch task must be one of {sorted(_TASK_METHODS)}, got {task!r}"
            )
        queries_json = self._field(payload, "queries")
        if not isinstance(queries_json, list) or not queries_json:
            raise HttpError(400, "'queries' must be a non-empty list")
        if len(queries_json) > self.config.max_batch_queries:
            raise HttpError(
                400,
                f"batch of {len(queries_json)} exceeds "
                f"max_batch_queries={self.config.max_batch_queries}",
            )
        queries = [query_from_json(q) for q in queries_json]
        session, database = self._context(payload, request)
        options = self._options(payload)
        parallel = options["parallel"]
        if parallel is None:
            # Only the process runtime reads this: it replicates the dataset
            # to at most this many workers (inline batches run in order).
            parallel = min(8, len(queries))
        method = getattr(session, _TASK_METHODS[task][1])
        call = partial(
            method,
            queries,
            database,
            parallel=parallel,
            runtime=options["runtime"],
            use_core=options["use_core"],
        )
        return await self._execute(
            payload,
            call,
            lambda results: {"results": [result_to_json(r) for r in results]},
        )

    # -- append path & standing queries ----------------------------------
    async def _handle_facts(self, request: Request) -> Response:
        """Append rows to a registered dataset (the service write path).

        Decoding, the arity check and the append run on the engine executor
        under admission and the request deadline, like a query, so the
        event loop keeps serving while a large payload lands.  All or
        nothing: every relation's stored arity is checked for the whole
        payload before the first row lands, so a 400 leaves the dataset
        unchanged, and so does a deadline that fires first.  The versioned
        storage layer makes the append observable everywhere downstream:
        columnar views read the appended rows off the id tables, session
        partition caches route the delta rows to their shards, the process
        runtime ships only the delta to the owning workers, and standing
        subscriptions fold the rows in on their next poll.
        """
        payload = self._payload(request)
        tenant = self._tenant_of(payload, request)
        dataset = self._field(payload, "dataset")
        if not isinstance(dataset, str):
            raise HttpError(400, f"dataset must be a string, got {dataset!r}")
        raw_facts = self._field(payload, "facts")

        def append(cancel) -> dict:
            facts = facts_from_json(raw_facts)
            database = self.datasets.get(tenant, dataset)
            appended: dict = {}
            with self._append_lock:
                cancel.raise_if_cancelled()
                # The codec made each relation's rows agree on one arity.
                for name, rows in facts.items():
                    if database.has_relation(name):
                        arity = database.relation(name).arity
                        if len(rows[0]) != arity:
                            raise CodecError(
                                f"relation {name!r} has arity {arity}, "
                                f"got tuple of length {len(rows[0])}"
                            )
                for name, rows in facts.items():
                    before = (
                        database.relation(name).version
                        if database.has_relation(name)
                        else 0
                    )
                    for row in rows:
                        database.add_fact(name, row)
                    appended[name] = database.relation(name).version - before
                version = database.version
            return {
                "dataset": dataset,
                "appended": appended,
                "added": sum(appended.values()),
                "version": version,
            }

        return await self._execute(payload, append, lambda receipt: receipt)

    async def _handle_subscribe(self, request: Request) -> Response:
        """Register a standing query; the response carries the initial
        answer set as the first delta (later polls return only growth).
        A registry at its ``max_subscriptions`` answers 503."""
        payload = self._payload(request)
        tenant = self._tenant_of(payload, request)
        dataset = self._field(payload, "dataset")
        if not isinstance(dataset, str):
            raise HttpError(400, f"dataset must be a string, got {dataset!r}")
        query = query_from_json(self._field(payload, "query"))
        session = self.sessions.get(tenant)
        database = self.datasets.get(tenant, dataset)
        try:
            subscription = self.subscriptions.register(
                tenant, dataset, query,
                partial(session.incremental_view, query, database),
            )
        except OverflowError as exc:
            return Response.error(503, str(exc))
        return await self._execute(
            payload,
            lambda cancel=None: subscription.poll(),
            self._poll_to_json,
        )

    async def _handle_poll(self, request: Request) -> Response:
        """Refresh one subscription and return the undelivered answers."""
        tenant = self._tenant_of({}, request)
        subscription = self.subscriptions.get(tenant, request.params["id"])
        return await self._execute(
            {},
            lambda cancel=None: subscription.poll(),
            self._poll_to_json,
        )

    async def _handle_unsubscribe(self, request: Request) -> Response:
        tenant = self._tenant_of({}, request)
        subscription = self.subscriptions.remove(tenant, request.params["id"])
        return Response(
            200, {"removed": subscription.id, "polls": subscription.polls}
        )

    @staticmethod
    def _poll_to_json(record: dict) -> dict:
        return {
            "subscription": record["id"],
            "dataset": record["dataset"],
            "mode": record["mode"],
            "delta": rows_to_json(record["delta"]),
            "total": record["total"],
            "delta_rows": record["delta_rows"],
            "refresh_seconds": record["refresh_seconds"],
        }

    def _tenant_of(self, payload: dict, request: Request) -> str:
        """The request's tenant: the body field when present, else the
        ``X-Tenant`` header (the only channel bodyless GET/DELETE have)."""
        tenant = payload.get("tenant", request.headers.get("x-tenant", DEFAULT_TENANT))
        if not isinstance(tenant, str) or not tenant:
            raise HttpError(400, f"tenant must be a non-empty string, got {tenant!r}")
        return tenant

    # -- request plumbing ------------------------------------------------
    def _payload(self, request: Request) -> dict:
        payload = request.json()
        if not isinstance(payload, dict):
            raise HttpError(400, "request body must be a JSON object")
        return payload

    @staticmethod
    def _field(payload: dict, name: str):
        try:
            return payload[name]
        except KeyError:
            raise HttpError(400, f"missing required field {name!r}") from None

    def _context(self, payload: dict, request: Request):
        """The tenant's session and the request's database."""
        tenant = self._tenant_of(payload, request)
        session = self.sessions.get(tenant)
        inline = payload.get("database")
        dataset = payload.get("dataset")
        if (inline is None) == (dataset is None):
            raise HttpError(
                400, "provide exactly one of 'dataset' (registered name) or "
                "'database' (inline relations)"
            )
        if inline is not None:
            return session, database_from_json(inline)
        if not isinstance(dataset, str):
            raise HttpError(400, f"dataset must be a string, got {dataset!r}")
        return session, self.datasets.get(tenant, dataset)

    def _options(self, payload: dict) -> dict:
        shards = payload.get("shards", 1)
        if not isinstance(shards, int) or isinstance(shards, bool) or shards < 1:
            raise HttpError(400, f"shards must be a positive integer, got {shards!r}")
        parallel = payload.get("parallel")
        if parallel is not None and (
            not isinstance(parallel, int) or isinstance(parallel, bool) or parallel < 1
        ):
            raise HttpError(
                400, f"parallel must be a positive integer, got {parallel!r}"
            )
        shard_variable = payload.get("shard_variable")
        if shard_variable is not None and not isinstance(shard_variable, str):
            raise HttpError(400, "shard_variable must be a string")
        runtime = payload.get("runtime")
        if runtime is not None:
            if not isinstance(runtime, str):
                raise HttpError(400, "runtime must be a registered runtime name")
            try:
                runtime = runtime_for(runtime)
            except ValueError as exc:
                raise HttpError(400, str(exc)) from None
        use_core = payload.get("use_core", False)
        if not isinstance(use_core, bool):
            raise HttpError(400, "use_core must be a boolean")
        return {
            "shards": shards,
            "parallel": parallel,
            "shard_variable": shard_variable,
            "runtime": runtime,
            "use_core": use_core,
        }

    # -- execution under admission + deadline ----------------------------
    async def _execute(self, payload: dict, call, render) -> Response:
        """Admit, run ``call(cancel=token)`` on the engine executor, guard
        with the request deadline, render the result."""
        try:
            seconds = deadline_seconds(
                payload, self.config.default_deadline_seconds
            )
        except ValueError as exc:
            raise HttpError(400, str(exc)) from None
        sleep_seconds = self._debug_sleep_seconds(payload)
        token = CancellationToken()

        def work():
            if sleep_seconds:
                _interruptible_sleep(sleep_seconds, token)
            return call(cancel=token)

        try:
            await self.admission.acquire()
        except Overloaded as exc:
            return Response.error(
                503,
                str(exc),
                headers={"Retry-After": f"{exc.retry_after_seconds:g}"},
            )
        loop = asyncio.get_running_loop()
        future = loop.run_in_executor(self._executor, work)
        future.add_done_callback(self._settle_engine_future)
        try:
            result = await guard(future, seconds, token)
        except DeadlineExceeded:
            self.metrics.record_deadline_exceeded()
            return Response.error(
                504,
                f"deadline of {seconds * 1000.0:g}ms exceeded; "
                "in-flight work cancelled",
                deadline_ms=seconds * 1000.0,
            )
        except RunCancelled:
            self.metrics.record_cancelled()
            return Response.error(504, "request cancelled")
        except UnknownDataset as exc:
            return Response.error(404, exc.args[0])
        except (CodecError, ValueError, TypeError) as exc:
            return Response.error(400, str(exc))
        return Response(200, render(result))

    def _settle_engine_future(self, future) -> None:
        # Runs on the event loop thread once the engine call unwinds —
        # including after a deadline already answered 504: the admission
        # slot is only returned when the work actually stopped, and the
        # exception is retrieved so abandoned RunCancelled errors never
        # warn at gc.
        self.admission.release()
        if not future.cancelled():
            future.exception()

    def _debug_sleep_seconds(self, payload: dict) -> float:
        raw = payload.get("_sleep_ms")
        if raw is None:
            return 0.0
        if not self.config.debug_hooks:
            raise HttpError(400, "_sleep_ms requires debug_hooks=True")
        if not isinstance(raw, (int, float)) or isinstance(raw, bool) or raw < 0:
            raise HttpError(400, f"_sleep_ms must be a non-negative number, got {raw!r}")
        return float(raw) / 1000.0


def _interruptible_sleep(seconds: float, token: CancellationToken) -> None:
    deadline = time.monotonic() + seconds
    while True:
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            return
        token.raise_if_cancelled()
        time.sleep(min(0.005, remaining))


# ----------------------------------------------------------------------
# Threaded serving: the harness tests and load benchmarks drive the
# service from synchronous code.
# ----------------------------------------------------------------------
class ServiceThread:
    """A service running its own event loop on a daemon thread."""

    def __init__(self, service: QueryService) -> None:
        self.service = service
        self._loop = asyncio.new_event_loop()
        self._ready = threading.Event()
        self._startup_error: BaseException | None = None
        self._thread = threading.Thread(
            target=self._run, name="repro-service-loop", daemon=True
        )

    def _run(self) -> None:
        asyncio.set_event_loop(self._loop)
        try:
            self._loop.run_until_complete(self.service.start())
        except BaseException as exc:  # surface bind errors to the caller
            self._startup_error = exc
            self._ready.set()
            return
        self._ready.set()
        try:
            self._loop.run_forever()
        finally:
            self._loop.run_until_complete(self._loop.shutdown_asyncgens())
            self._loop.close()

    def start(self) -> "ServiceThread":
        self._thread.start()
        if not self._ready.wait(timeout=30):
            raise RuntimeError("service failed to start within 30s")
        if self._startup_error is not None:
            raise RuntimeError("service failed to start") from self._startup_error
        return self

    @property
    def host(self) -> str:
        return self.service.config.host

    @property
    def port(self) -> int:
        assert self.service.port is not None
        return self.service.port

    def stop(self) -> None:
        if not self._thread.is_alive():
            return
        asyncio.run_coroutine_threadsafe(self.service.stop(), self._loop).result(
            timeout=60
        )
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=60)

    def __enter__(self) -> "ServiceThread":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()


def serve_in_thread(
    service: QueryService | None = None, **config_fields
) -> ServiceThread:
    """Start a service on a background thread and return the running
    handle (``.host`` / ``.port`` / ``.service``; ``.stop()`` or use as a
    context manager)."""
    if service is None:
        service = QueryService(ServiceConfig(**config_fields))
    return ServiceThread(service).start()
