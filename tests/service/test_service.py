"""End-to-end service tests: a real server on a real socket, driven by
concurrent ``http.client`` connections:

* **differential exactness** — 8 concurrent clients replay a mixed
  workload through HTTP and every response must equal the direct
  ``EngineSession`` answer;
* **admission shedding** — a saturated queue answers 503 + ``Retry-After``
  immediately instead of queueing without bound;
* **deadline cancellation** — a 50ms deadline on an in-flight sharded call
  returns 504, fires the engine's cancellation token, and leaves no
  orphaned work (in-flight drains back to 0);
* **tenant isolation** — tenants get private sessions and private dataset
  namespaces, whether the tenant arrives in the body or the ``X-Tenant``
  header;
* **shutdown** — stopping a service that holds idle keep-alive connections
  closes them and waits for their handlers, leaving nothing for asyncio to
  log; stopping one under load drains the admitted work;
* **client retries** — after a dropped connection the client repeats only
  the reads.
"""

import asyncio
import gc
import http.client
import logging
import socket
import sys
import threading
import time
from collections import Counter

import pytest

from repro.cq import generators as cqgen
from repro.cq.database import Database
from repro.cq.query import Atom, ConjunctiveQuery
from repro.engine import EngineSession
from repro.service.codec import query_to_json
from repro.service import (
    QueryService,
    ServiceClient,
    ServiceConfig,
    ServiceError,
    serve_in_thread,
)


@pytest.fixture(scope="module")
def workload():
    query = cqgen.hub_cycle_query(4)
    database = cqgen.random_database(query, 10, 120, seed=42)
    queries = [
        query,
        cqgen.chain_query(3),
        cqgen.chain_query(4),
        cqgen.star_query(3),
    ]
    return queries, database


@pytest.fixture(scope="module")
def server(workload):
    _, database = workload
    service = QueryService(
        ServiceConfig(max_concurrent=4, debug_hooks=True)
    )
    service.register_dataset("bench", database)
    service.register_dataset("acme-private", Database(), tenant="acme")
    with serve_in_thread(service) as handle:
        yield handle


def _client(server):
    return ServiceClient(server.host, server.port)


class TestEndpoints:
    def test_healthz(self, server):
        with _client(server) as client:
            assert client.healthz()["status"] == "ok"

    def test_answer_matches_direct_session(self, server, workload):
        queries, database = workload
        reference = EngineSession()
        with _client(server) as client:
            for query in queries:
                served = client.answer(query, dataset="bench")
                direct = reference.answer(query, database)
                assert served["rows"] == sorted(
                    (list(row) for row in direct.rows), key=repr
                )
                assert served["strategy"] == direct.strategy

    def test_count_and_satisfiable_with_sharding(self, server, workload):
        queries, database = workload
        reference = EngineSession()
        with _client(server) as client:
            for query in queries:
                served = client.count(query, dataset="bench", shards=3)
                assert served["value"] == reference.count(query, database).count
                assert served["sharding"]["shards"] == 3
                sat = client.is_satisfiable(query, dataset="bench")
                assert sat["value"] is reference.is_satisfiable(
                    query, database
                ).satisfiable

    def test_fan_out_runs_inline_by_default(self, server, workload):
        queries, database = workload
        with _client(server) as client:
            served = client.count(queries[0], dataset="bench", shards=2)
            assert served["runtime"] == "inline"
            assert served["sharding"]["shards"] == 2
            assert served["value"] == EngineSession().count(
                queries[0], database
            ).count
            with pytest.raises(ServiceError) as info:
                client.count(queries[0], dataset="bench", shards=2, runtime="thread")
            assert info.value.status == 400

    def test_inline_database(self, server):
        database = Database()
        database.add_fact("E", (1, 2))
        database.add_fact("E", (2, 1))
        query = ConjunctiveQuery([Atom("E", ("x", "y")), Atom("E", ("y", "x"))])
        with _client(server) as client:
            served = client.answer(query, database=database)
            assert sorted(served["rows"]) == [[1, 2], [2, 1]]

    def test_batch_matches_answer_many(self, server, workload):
        queries, database = workload
        batch = queries + [queries[0]]  # a dedup candidate
        reference = EngineSession().answer_many(batch, database, parallel=2)
        with _client(server) as client:
            served = client.batch(batch, dataset="bench")
        assert len(served["results"]) == len(batch)
        for wire, direct in zip(served["results"], reference):
            assert wire["rows"] == sorted(
                (list(row) for row in direct.rows), key=repr
            )

    def test_error_mapping(self, server, workload):
        queries, _ = workload
        with _client(server) as client:
            with pytest.raises(ServiceError) as info:
                client.answer(queries[0], dataset="ghost")
            assert info.value.status == 404
            with pytest.raises(ServiceError) as info:
                client.request("POST", "/answer", {"dataset": "bench"})
            assert info.value.status == 400  # no query
            with pytest.raises(ServiceError) as info:
                client.request(
                    "POST", "/answer",
                    {"query": {"atoms": []}, "dataset": "bench"},
                )
            assert info.value.status == 400  # codec error
            with pytest.raises(ServiceError) as info:
                client.answer(queries[0], dataset="bench", shards=0)
            assert info.value.status == 400
            with pytest.raises(ServiceError) as info:
                client.answer(queries[0], dataset="bench", runtime="warp-drive")
            assert info.value.status == 400
            with pytest.raises(ServiceError) as info:
                client.request("GET", "/answer")
            assert info.value.status == 405
            with pytest.raises(ServiceError) as info:
                client.request("POST", "/nope", {})
            assert info.value.status == 404

    def test_an_atom_of_another_arity_answers_400(self, server):
        database = Database()
        database.add_fact("E", (1, 2))
        with _client(server) as client:
            for terms in (("x", "y", "z"), ("x",)):
                query = ConjunctiveQuery([Atom("E", terms)])
                for call in (client.answer, client.count):
                    with pytest.raises(ServiceError) as info:
                        call(query, database=database)
                    assert info.value.status == 400
                    assert "has arity 2" in str(info.value)
                with pytest.raises(ServiceError) as info:
                    client.batch([query], database=database)
                assert info.value.status == 400
            # A relation without rows answers empty at any arity: the
            # inline relation "E": [] gets arity 0.
            query = ConjunctiveQuery([Atom("E", ("x", "y"))])
            served = client.request(
                "POST", "/answer",
                {"query": query_to_json(query), "database": {"E": []}},
            )
            assert served["rows"] == []

    @pytest.mark.parametrize(
        "path, extra",
        [
            ("/answer", {"deadline_ms": float("nan")}),
            ("/facts", {"facts": {"R0": [[float("inf"), 1]]}}),
        ],
        ids=["deadline-nan", "facts-infinity"],
    )
    def test_non_json_constants_answer_400(self, server, workload, path, extra):
        queries, database = workload
        version = database.version
        payload = {"dataset": "bench", "query": query_to_json(queries[0]), **extra}
        with _client(server) as client:
            with pytest.raises(ServiceError) as info:
                client.request("POST", path, payload)
        assert info.value.status == 400
        assert "request body is not valid JSON" in str(info.value)
        assert database.version == version

    @pytest.mark.parametrize(
        "request_bytes",
        [
            b"GET /" + b"a" * 70_000 + b" HTTP/1.1\r\n\r\n",
            b"GET /healthz HTTP/1.1\r\nX-Long: " + b"a" * 70_000 + b"\r\n\r\n",
        ],
        ids=["request-line", "header-line"],
    )
    def test_a_line_past_the_stream_limit_answers_400(
        self, server, request_bytes, caplog
    ):
        # Past the stream reader's 64 KiB limit readline raises ValueError,
        # not LimitOverrunError; it must answer like a line past the
        # parser's own 16 KiB cap.
        with socket.create_connection((server.host, server.port), timeout=10) as raw:
            raw.sendall(request_bytes)
            reply = b""
            while chunk := raw.recv(65536):
                reply += chunk
        assert reply.startswith(b"HTTP/1.1 400 ")
        assert b"line too long" in reply
        with _client(server) as client:
            assert client.healthz()["status"] == "ok"
        assert not [
            record for record in caplog.records
            if "Unhandled exception" in record.getMessage()
        ]

    def test_stats_shape(self, server, workload):
        queries, _ = workload
        with _client(server) as client:
            client.count(queries[0], dataset="bench")
            stats = client.stats()
        assert set(stats) >= {
            "service", "admission", "tenants", "tenant_pool", "datasets",
            "config",
        }
        assert stats["admission"]["max_concurrent"] == 4
        service_stats = stats["service"]
        assert service_stats["requests_by_endpoint"]["/count"] >= 1
        assert service_stats["latency"]["p99_seconds"] is not None
        # The engine's own counters surface per tenant.
        public = stats["tenants"]["public"]
        assert "plan_cache" in public
        assert "bench" in stats["datasets"]["public"]


class TestConcurrentDifferential:
    def test_eight_concurrent_clients_exact_results(self, server, workload):
        queries, database = workload
        reference = EngineSession()
        expected = {}
        for index, query in enumerate(queries):
            direct = reference.answer(query, database)
            expected[index] = sorted(
                (list(row) for row in direct.rows), key=repr
            )
        errors = []
        barrier = threading.Barrier(8)

        def worker(worker_index: int) -> None:
            try:
                client = _client(server)
                barrier.wait(timeout=30)
                for round_index in range(6):
                    index = (worker_index + round_index) % len(queries)
                    shards = 1 + (worker_index + round_index) % 3
                    served = client.answer(
                        queries[index], dataset="bench", shards=shards
                    )
                    if served["rows"] != expected[index]:
                        errors.append(
                            f"worker {worker_index} round {round_index}: "
                            f"mismatch on query {index} (shards={shards})"
                        )
                client.close()
            except Exception as exc:
                errors.append(f"worker {worker_index}: {exc!r}")

        threads = [
            threading.Thread(target=worker, args=(w,)) for w in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert errors == []


class TestAdmissionShedding:
    def test_saturated_queue_sheds_with_retry_after(self, workload):
        _, database = workload
        service = QueryService(
            ServiceConfig(
                max_concurrent=1,
                max_queue=1,
                retry_after_seconds=0.5,
                debug_hooks=True,
            )
        )
        service.register_dataset("bench", database)
        query = cqgen.chain_query(2)
        with serve_in_thread(service) as handle:
            statuses = []
            lock = threading.Lock()

            def slow_client():
                client = ServiceClient(handle.host, handle.port)
                try:
                    client.answer(query, dataset="bench", _sleep_ms=700)
                    with lock:
                        statuses.append(200)
                except ServiceError as exc:
                    with lock:
                        statuses.append(exc.status)
                finally:
                    client.close()

            threads = [threading.Thread(target=slow_client) for _ in range(6)]
            for thread in threads:
                thread.start()
                time.sleep(0.05)  # deterministic arrival order
            for thread in threads:
                thread.join(timeout=60)
            # 1 running + 1 queued succeed; the other 4 shed.
            assert sorted(statuses) == [200, 200, 503, 503, 503, 503]

            with ServiceClient(handle.host, handle.port) as client:
                stats = client.stats()
                assert stats["admission"]["shed"] == 4
                assert stats["service"]["shed"] == 4
                # Shed responses carry the backoff hint.
                try:
                    saturator = threading.Thread(target=slow_client)
                    blocker = threading.Thread(target=slow_client)
                    saturator.start()
                    blocker.start()
                    time.sleep(0.2)
                    with pytest.raises(ServiceError) as info:
                        client.answer(query, dataset="bench")
                    assert info.value.status == 503
                    assert info.value.retry_after_seconds == 0.5
                finally:
                    saturator.join(timeout=60)
                    blocker.join(timeout=60)


class TestDeadlines:
    def test_deadline_cancels_in_flight_sharded_call(self, workload):
        _, database = workload
        service = QueryService(
            ServiceConfig(max_concurrent=2, debug_hooks=True)
        )
        service.register_dataset("bench", database)
        query = cqgen.hub_cycle_query(4)
        with serve_in_thread(service) as handle:
            with ServiceClient(handle.host, handle.port) as client:
                started = time.perf_counter()
                with pytest.raises(ServiceError) as info:
                    client.answer(
                        query,
                        dataset="bench",
                        shards=4,
                        deadline_ms=50,
                        _sleep_ms=5000,
                    )
                elapsed = time.perf_counter() - started
                assert info.value.status == 504
                # Answered at the deadline, not after the sleep.
                assert elapsed < 2.0
                # The admission slot is held until the engine call unwinds,
                # then released: no orphaned futures, no leaked slots.
                for _ in range(200):
                    if client.healthz()["in_flight"] == 0:
                        break
                    time.sleep(0.05)
                assert client.healthz()["in_flight"] == 0
                stats = client.stats()
                assert stats["service"]["deadline_exceeded"] == 1
                assert stats["admission"]["completed"] == (
                    stats["admission"]["admitted"]
                )
                # The service still answers normally afterwards.
                fine = client.count(query, dataset="bench", shards=2)
                assert isinstance(fine["value"], int)

    def test_default_deadline_from_config(self, workload):
        _, database = workload
        service = QueryService(
            ServiceConfig(
                max_concurrent=1,
                default_deadline_seconds=0.05,
                debug_hooks=True,
            )
        )
        service.register_dataset("bench", database)
        with serve_in_thread(service) as handle:
            with ServiceClient(handle.host, handle.port) as client:
                with pytest.raises(ServiceError) as info:
                    client.answer(
                        cqgen.chain_query(2), dataset="bench", _sleep_ms=3000
                    )
                assert info.value.status == 504


class TestTenantIsolation:
    def test_sessions_and_datasets_are_tenant_private(self, server, workload):
        queries, _ = workload
        with _client(server) as client:
            client.count(queries[0], dataset="bench", tenant="public")
            # acme can't see public's dataset...
            with pytest.raises(ServiceError) as info:
                client.count(queries[0], dataset="bench", tenant="acme")
            assert info.value.status == 404
            # ...but has its own namespace (registered in the fixture).
            names = client.stats()["datasets"]
            assert "bench" in names["public"]
            assert names["acme"] == ["acme-private"]

    def test_tenant_sessions_have_private_caches(self, server, workload):
        queries, _ = workload
        query = queries[0]
        database = workload[1]
        with _client(server) as client:
            client.count(query, database=database, tenant="cache-a")
            client.count(query, database=database, tenant="cache-a")
            stats = client.stats()["tenants"]
            # cache-a planned once and hit its plan cache once; a fresh
            # tenant has no cache state at all (nothing leaked across).
            cache_a = stats["cache-a"]["plan_cache"]
            assert cache_a["hits"] >= 1
            assert "cache-b" not in stats

    def test_query_endpoints_honour_the_tenant_header(self):
        # Regression: POST /answer and /batch read only the body's tenant,
        # so a request carrying X-Tenant (which POST /facts honours) read
        # the public tenant's dataset of the same name.
        query = ConjunctiveQuery([Atom("R", ("x",))])
        public, private = Database(), Database()
        public.add_fact("R", (1,))
        private.add_fact("R", (2,))
        service = QueryService(ServiceConfig())
        service.register_dataset("d", public)
        service.register_dataset("d", private, tenant="acme")
        acme = {"X-Tenant": "acme"}
        with serve_in_thread(service) as handle:
            with ServiceClient(handle.host, handle.port) as client:
                client.request(
                    "POST", "/facts",
                    {"dataset": "d", "facts": {"R": [[3]]}}, headers=acme,
                )
                body = ServiceClient._payload(query, dataset="d")
                answered = client.request("POST", "/answer", body, headers=acme)
                assert sorted(answered["rows"]) == [[2], [3]]
                batch = {"dataset": "d", "task": "count", "queries": [body["query"]]}
                counted = client.request("POST", "/batch", batch, headers=acme)
                assert [r["value"] for r in counted["results"]] == [2]
                # The body field still wins over the header.
                public_rows = client.request(
                    "POST", "/answer", dict(body, tenant="public"), headers=acme
                )
                assert public_rows["rows"] == [[1]]

    def test_debug_hook_gated(self, workload):
        _, database = workload
        service = QueryService(ServiceConfig())  # debug_hooks off
        service.register_dataset("bench", database)
        with serve_in_thread(service) as handle:
            with ServiceClient(handle.host, handle.port) as client:
                with pytest.raises(ServiceError) as info:
                    client.answer(
                        cqgen.chain_query(2), dataset="bench", _sleep_ms=10
                    )
                assert info.value.status == 400


class TestShutdown:
    def test_stop_closes_idle_keep_alive_connections(self, caplog):
        # Three clients each leave a keep-alive connection idle.  stop()
        # must close them and wait for their handlers: a handler left
        # pending is destroyed with its loop, which asyncio logs, and its
        # cleanup then raises into a closed loop (an unraisable exception).
        unraisable = []
        previous_hook = sys.unraisablehook
        sys.unraisablehook = unraisable.append
        clients = []
        try:
            with caplog.at_level(logging.WARNING, logger="asyncio"):
                handle = serve_in_thread(QueryService(ServiceConfig()))
                try:
                    for _ in range(3):
                        clients.append(ServiceClient(handle.host, handle.port))
                        assert clients[-1].healthz()["status"] == "ok"
                finally:
                    handle.stop()
                gc.collect()
        finally:
            sys.unraisablehook = previous_hook
            for client in clients:
                client.close()
        logged = [r.getMessage() for r in caplog.records if r.name == "asyncio"]
        assert logged == []
        assert [repr(item.exc_value) for item in unraisable] == []

    def test_stop_under_load_drains_admitted_work(self, workload, caplog):
        # Two requests run, two queue and two are shed when stop() lands.
        # stop() must return promptly, every admitted request must complete
        # and reach its client (200), the shed ones keep their 503, and
        # admission must drain: nothing left in flight.  Every request
        # reaches admission first: on Python 3.11 a connection that the
        # listener accepts as it closes fails an assertion inside asyncio
        # (``Server._attach``) and is never answered or closed.
        _, database = workload
        service = QueryService(
            ServiceConfig(max_concurrent=2, max_queue=2, debug_hooks=True)
        )
        service.register_dataset("bench", database)
        query = cqgen.chain_query(2)
        outcomes = {}

        def post(index, port):
            try:
                with ServiceClient("127.0.0.1", port, timeout=30) as client:
                    client.count(query, dataset="bench", _sleep_ms=400)
                outcomes[index] = 200
            except ServiceError as exc:
                outcomes[index] = exc.status
            except (http.client.HTTPException, OSError) as exc:
                outcomes[index] = type(exc).__name__

        def arrived():
            stats = service.admission.stats()
            return stats["admitted"] + stats["queued"] + stats["shed"]

        unraisable = []
        previous_hook = sys.unraisablehook
        sys.unraisablehook = unraisable.append
        threads = []
        try:
            # Errors only: debug mode (``-X dev``) also warns about any
            # loop step slower than 100 ms, which a busy host produces.
            with caplog.at_level(logging.ERROR, logger="asyncio"):
                handle = serve_in_thread(service)
                try:
                    threads = [
                        threading.Thread(target=post, args=(index, handle.port))
                        for index in range(6)
                    ]
                    for thread in threads:
                        thread.start()
                    deadline = time.monotonic() + 10
                    while arrived() < 6:
                        assert time.monotonic() < deadline, "requests never arrived"
                        time.sleep(0.005)
                    assert service.admission.in_flight == 2
                    started = time.monotonic()
                    handle.stop()
                    stop_seconds = time.monotonic() - started
                finally:
                    handle.stop()
                    for thread in threads:
                        thread.join(10)
                gc.collect()
        finally:
            sys.unraisablehook = previous_hook
        assert stop_seconds < 5.0
        assert not any(thread.is_alive() for thread in threads)
        assert sorted(outcomes) == list(range(6))
        assert Counter(outcomes.values()) == {200: 4, 503: 2}, outcomes
        stats = service.admission.stats()
        assert stats["in_flight"] == 0
        assert stats["admitted"] == stats["completed"]
        logged = [r.getMessage() for r in caplog.records if r.name == "asyncio"]
        assert logged == []
        assert [repr(item.exc_value) for item in unraisable] == []

    @pytest.mark.parametrize("spins", [0, 1, 2, 3])
    def test_a_connection_accepted_as_the_listener_closes_is_not_left_open(
        self, spins
    ):
        # The client connects while the loop is busy, then the loop turns
        # ``spins`` times before stop(): the listener may have accepted the
        # connection without attaching its transport yet.  On Python 3.11 a
        # transport attached after the listener closed failed an assertion
        # in ``Server._attach`` and its socket was neither answered nor
        # closed, so the client hung.  Every client must see a response,
        # an EOF or a reset within the timeout.
        async def scenario():
            service = QueryService(ServiceConfig(host="127.0.0.1", port=0))
            await service.start()
            client = socket.create_connection(("127.0.0.1", service.port))
            try:
                client.sendall(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
                for _ in range(spins):
                    await asyncio.sleep(0)
                await service.stop()
                client.settimeout(2.0)
                try:
                    while client.recv(65536):
                        pass
                except ConnectionResetError:
                    pass
            finally:
                client.close()

        asyncio.run(scenario())


class _DroppingServer:
    """A socket that reads each request in full and closes the connection
    without answering; ``requests`` holds every request line it read."""

    def __init__(self) -> None:
        self._listener = socket.create_server(("127.0.0.1", 0))
        # accept() wakes up every 50 ms to see whether close() was called.
        self._listener.settimeout(0.05)
        self.port = self._listener.getsockname()[1]
        self.requests: list = []
        self._closed = threading.Event()
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self) -> None:
        while not self._closed.is_set():
            try:
                connection, _ = self._listener.accept()
            except socket.timeout:
                continue
            connection.settimeout(10)
            with connection:
                data = b""
                while b"\r\n\r\n" not in data:
                    chunk = connection.recv(65536)
                    if not chunk:
                        break
                    data += chunk
                head, _, body = data.partition(b"\r\n\r\n")
                lines = head.decode("latin-1").split("\r\n")
                length = 0
                for line in lines[1:]:
                    name, _, value = line.partition(":")
                    if name.strip().lower() == "content-length":
                        length = int(value)
                while len(body) < length:
                    chunk = connection.recv(65536)
                    if not chunk:
                        break
                    body += chunk
                self.requests.append(lines[0].rsplit(" ", 1)[0])

    def close(self) -> None:
        self._closed.set()
        self._thread.join(5)
        self._listener.close()


class TestClientRetry:
    def test_only_reads_are_sent_again_after_a_dropped_connection(self):
        # A poll advances its subscription's cursor, a subscribe registers
        # a subscription and an append adds rows: repeating one whose
        # response was lost would drop a delta or act twice.
        query = cqgen.chain_query(2)
        dropping = _DroppingServer()
        try:
            calls = [
                (lambda c: c.poll("sub-1"), "GET /subscriptions/sub-1", 1),
                (lambda c: c.subscribe(query, dataset="d"), "POST /subscriptions", 1),
                (lambda c: c.unsubscribe("sub-1"), "DELETE /subscriptions/sub-1", 1),
                (lambda c: c.add_facts("d", {"E": [[1, 2]]}), "POST /facts", 1),
                (lambda c: c.count(query, dataset="d"), "POST /count", 2),
            ]
            for call, request_line, sends in calls:
                dropping.requests.clear()
                with ServiceClient("127.0.0.1", dropping.port, timeout=10) as client:
                    with pytest.raises((http.client.HTTPException, OSError)):
                        call(client)
                assert dropping.requests == [request_line] * sends
        finally:
            dropping.close()
