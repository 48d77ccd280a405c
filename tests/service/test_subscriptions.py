"""The service write path: ``POST /facts`` appends and standing queries.

Drives a real server over HTTP: appends must propagate through the
versioned storage layer into every later read, and subscription polls must
return exactly the answers derived since the previous poll — computed
incrementally, tenant-isolated, and equal to a from-scratch evaluation.
"""

import gc
import http.client
import json
import random
import sys
import threading
import time

import pytest

from repro.cq.database import Database
from repro.cq.query import Atom, ConjunctiveQuery
from repro.engine import EngineSession
from repro.service import (
    QueryService,
    ServiceClient,
    ServiceConfig,
    ServiceError,
    serve_in_thread,
)
from repro.service.subscriptions import Subscription


def _path_query():
    return ConjunctiveQuery([Atom("E", ("x", "y")), Atom("E", ("y", "z"))])


def _graph(edges):
    database = Database()
    for a, b in edges:
        database.add_fact("E", (a, b))
    return database


@pytest.fixture()
def server():
    service = QueryService(ServiceConfig(max_concurrent=4))
    service.register_dataset("graph", _graph((i, i + 1) for i in range(10)))
    service.register_dataset(
        "acme-graph", _graph([(1, 2), (2, 3)]), tenant="acme"
    )
    with serve_in_thread(service) as handle:
        yield handle


def _client(server):
    return ServiceClient(server.host, server.port)


def _rows(rows):
    return sorted((list(r) for r in rows), key=repr)


class TestFactsEndpoint:
    def test_append_is_visible_to_answer(self, server):
        query = _path_query()
        with _client(server) as client:
            before = client.answer(query, dataset="graph")["rows"]
            receipt = client.add_facts("graph", {"E": [[100, 101], [101, 102]]})
            assert receipt["added"] == 2
            assert receipt["appended"] == {"E": 2}
            after = client.answer(query, dataset="graph")["rows"]
            assert len(after) == len(before) + 1
            assert [100, 101, 102] in after

    def test_duplicate_rows_are_no_ops(self, server):
        with _client(server) as client:
            v = client.add_facts("graph", {"E": [[0, 1]]})
            assert v["added"] == 0
            assert v["appended"] == {"E": 0}

    def test_new_relation_and_arity_errors(self, server):
        with _client(server) as client:
            receipt = client.add_facts("graph", {"Label": [[3]]})
            assert receipt["appended"] == {"Label": 1}
            with pytest.raises(ServiceError) as err:
                client.add_facts("graph", {"Label": [[3, 4]]})
            assert err.value.status == 400
            with pytest.raises(ServiceError) as err:
                client.add_facts("missing", {"E": [[1, 2]]})
            assert err.value.status == 404

    def test_an_arity_error_appends_nothing(self, server):
        # All or nothing: the payload names E before Label, and Label's
        # stored arity refuses the whole payload before E's row lands.
        database = server.service.datasets.get("public", "graph")
        with _client(server) as client:
            client.add_facts("graph", {"Label": [[1]]})
            version = database.relation("E").version
            with pytest.raises(ServiceError) as err:
                client.add_facts("graph", {"E": [[500, 501]], "Label": [[1, 2]]})
            assert err.value.status == 400
            assert database.relation("E").version == version
            assert (500, 501) not in database.relation("E")

    def test_a_large_append_leaves_the_event_loop_serving(self):
        # The append runs on the engine executor: a health probe on another
        # connection keeps answering while 100,000 rows land.  The body is
        # encoded up front and the cyclic collector is paused, because a
        # JSON encode or a full collection stops every thread of this
        # process, the probe's included, wherever the append runs.
        service = QueryService(ServiceConfig(max_concurrent=2))
        service.register_dataset("graph", _graph([(0, 1)]))
        rows = [[i, i + 1] for i in range(1, 100_001)]
        body = json.dumps({"dataset": "graph", "facts": {"E": rows}}).encode()
        worst = [0.0]
        probing = threading.Event()
        done = threading.Event()
        gc.disable()
        try:
            with serve_in_thread(service) as handle:

                def probe():
                    with ServiceClient(handle.host, handle.port) as client:
                        while not done.is_set():
                            started = time.perf_counter()
                            client.healthz()
                            elapsed = time.perf_counter() - started
                            worst[0] = max(worst[0], elapsed)
                            probing.set()

                thread = threading.Thread(target=probe)
                thread.start()
                try:
                    assert probing.wait(30)
                    connection = http.client.HTTPConnection(handle.host, handle.port)
                    started = time.perf_counter()
                    connection.request(
                        "POST", "/facts", body=body,
                        headers={"Content-Type": "application/json"},
                    )
                    response = connection.getresponse()
                    receipt = json.loads(response.read())
                    append_seconds = time.perf_counter() - started
                    connection.close()
                finally:
                    done.set()
                    thread.join(30)
        finally:
            gc.enable()
        assert not thread.is_alive()
        assert response.status == 200
        assert receipt["added"] == 100_000
        assert worst[0] < append_seconds / 4, (worst[0], append_seconds)

    def test_a_deadline_before_the_append_leaves_the_dataset_unchanged(self):
        service = QueryService(ServiceConfig(max_concurrent=2, debug_hooks=True))
        database = _graph((i, i + 1) for i in range(10))
        service.register_dataset("graph", database)
        version = database.version
        with serve_in_thread(service) as handle:
            with ServiceClient(handle.host, handle.port) as client:
                with pytest.raises(ServiceError) as err:
                    client.request(
                        "POST",
                        "/facts",
                        {
                            "dataset": "graph",
                            "facts": {"E": [[500, 501]]},
                            "_sleep_ms": 200,
                            "deadline_ms": 50,
                        },
                    )
                assert err.value.status == 504
                # The slot returns once the cancelled work unwinds.
                for _ in range(200):
                    if client.healthz()["in_flight"] == 0:
                        break
                    time.sleep(0.05)
                assert client.healthz()["in_flight"] == 0
        assert database.version == version
        assert (500, 501) not in database.relation("E")

    def test_facts_payload_validated(self, server):
        with _client(server) as client:
            for bad in ({}, {"E": []}, {"E": [[1], [1, 2]]}, {"E": "rows"}):
                with pytest.raises(ServiceError) as err:
                    client.request(
                        "POST", "/facts", {"dataset": "graph", "facts": bad}
                    )
                assert err.value.status == 400


class TestSubscriptions:
    def test_initial_poll_then_delta_only(self, server):
        query = _path_query()
        with _client(server) as client:
            sub = client.subscribe(query, dataset="graph")
            assert sub["mode"] == "initial"
            initial = sub["delta"]
            assert sub["total"] == len(initial)
            assert client.poll(sub["subscription"])["mode"] == "noop"
            client.add_facts("graph", {"E": [[200, 201], [201, 202]]})
            poll = client.poll(sub["subscription"])
            assert poll["mode"] == "incremental"
            assert poll["delta"] == [[200, 201, 202]]
            assert poll["total"] == len(initial) + 1
            # Delivered once: the next poll is empty again.
            assert client.poll(sub["subscription"])["delta"] == []

    def test_poll_matches_from_scratch_evaluation(self, server):
        query = _path_query()
        session = EngineSession()
        with _client(server) as client:
            sub = client.subscribe(query, dataset="graph")
            delivered = {tuple(row) for row in sub["delta"]}
            shadow = _graph((i, i + 1) for i in range(10))
            for rows in ([[50, 51]], [[51, 52], [52, 53]], [[9, 50]]):
                client.add_facts("graph", {"E": rows})
                for a, b in rows:
                    shadow.add_fact("E", (a, b))
                poll = client.poll(sub["subscription"])
                delivered |= {tuple(row) for row in poll["delta"]}
                assert delivered == session.answer(query, shadow).rows

    def test_tenant_isolation(self, server):
        query = _path_query()
        with _client(server) as client:
            sub = client.subscribe(query, dataset="acme-graph", tenant="acme")
            assert sub["delta"] == [[1, 2, 3]]
            # The default tenant cannot poll, delete, or even observe it.
            for action in (client.poll, client.unsubscribe):
                with pytest.raises(ServiceError) as err:
                    action(sub["subscription"])
                assert err.value.status == 404
            poll = client.poll(sub["subscription"], tenant="acme")
            assert poll["mode"] == "noop"

    def test_unsubscribe_frees_the_registration(self, server):
        query = _path_query()
        with _client(server) as client:
            sub = client.subscribe(query, dataset="graph")
            removed = client.unsubscribe(sub["subscription"])
            assert removed["removed"] == sub["subscription"]
            with pytest.raises(ServiceError) as err:
                client.poll(sub["subscription"])
            assert err.value.status == 404

    def test_subscription_errors(self, server):
        query = _path_query()
        with _client(server) as client:
            with pytest.raises(ServiceError) as err:
                client.subscribe(query, dataset="missing")
            assert err.value.status == 404
            with pytest.raises(ServiceError) as err:
                client.subscribe(query, dataset=7)
            assert err.value.status == 400
            with pytest.raises(ServiceError) as err:
                client.poll("no-such-id")
            assert err.value.status == 404

    def test_a_full_registry_answers_503(self, server):
        server.service.subscriptions.max_subscriptions = 1
        query = _path_query()

        def views(client):
            tenants = client.stats()["tenants"]
            return tenants.get("public", {}).get("incremental_views", 0)

        with _client(server) as client:
            before = views(client)
            first = client.subscribe(query, dataset="graph")
            for _ in range(3):
                with pytest.raises(ServiceError) as err:
                    client.subscribe(query, dataset="graph")
                assert err.value.status == 503
                assert "limit of 1" in str(err.value)
            # A refused subscription builds no standing view.
            assert views(client) == before + 1
            client.add_facts("graph", {"E": [[300, 301], [301, 302]]})
            poll = client.poll(first["subscription"])
            assert poll["delta"] == [[300, 301, 302]]
            assert client.stats()["subscriptions"]["active"] == 1

    def test_stats_report_subscriptions(self, server):
        query = _path_query()
        with _client(server) as client:
            sub = client.subscribe(query, dataset="graph")
            stats = client.stats()["subscriptions"]
            assert stats["active"] >= 1
            info = stats["by_tenant"]["public"][sub["subscription"]]
            assert info["dataset"] == "graph"
            assert info["refresh_modes"]["initial"] == 1


class TestTenantEviction:
    def test_a_live_subscription_outlives_its_tenants_evicted_session(self):
        # One tenant slot: tenant b's request evicts tenant a's session
        # while a holds a subscription.  a's poll still delivers exactly the
        # answers it has not seen, and a's next query runs on a new session.
        query = _path_query()
        edges = [(i, i + 1) for i in range(10)]
        service = QueryService(ServiceConfig(max_tenants=1))
        service.register_dataset("graph", _graph(edges), tenant="a")
        service.register_dataset("graph", _graph([(1, 2), (2, 3)]), tenant="b")
        shadow = _graph(edges)
        with serve_in_thread(service) as handle, _client(handle) as client:
            sub = client.subscribe(query, dataset="graph", tenant="a")
            delivered = {tuple(row) for row in sub["delta"]}
            assert client.answer(query, dataset="graph", tenant="b")["rows"]
            assert service.sessions.tenants() == ["b"]
            rows = [[10, 11], [11, 12], [3, 30]]
            client.add_facts("graph", {"E": rows}, tenant="a")
            for a, b in rows:
                shadow.add_fact("E", (a, b))
            expected = EngineSession().answer(query, shadow).rows
            poll = client.poll(sub["subscription"], tenant="a")
            assert sorted(map(tuple, poll["delta"])) == sorted(expected - delivered)
            assert poll["total"] == len(expected)
            answered = client.answer(query, dataset="graph", tenant="a")
            assert {tuple(row) for row in answered["rows"]} == expected
            stats = client.stats()
            assert stats["tenant_pool"]["created"] == 3
            assert stats["tenants"]["a"]["plan_cache"]["hits"] == 0


class TestConcurrentPolls:
    def test_polls_racing_appends_deliver_every_answer_once(self):
        # After the initial poll, two pollers race one paced appender on a
        # 1 µs switch interval; a last poll after the appends catches up.
        # The deltas must add up to the from-scratch answer with no row
        # delivered twice.
        query = _path_query()
        rng = random.Random(5)
        database = _graph(
            (rng.randrange(80), rng.randrange(80)) for _ in range(600)
        )
        view = EngineSession().incremental_view(query, database)
        subscription = Subscription("sub-race", "public", "graph", query, view)
        records = [subscription.poll()]
        errors = []
        appended = threading.Event()
        barrier = threading.Barrier(3)

        def append():
            try:
                barrier.wait(timeout=10)
                for _ in range(40):
                    for _ in range(10):
                        database.add_fact("E", (rng.randrange(80), rng.randrange(80)))
                    time.sleep(0.001)
            except Exception as error:  # surfaced by the assert below
                errors.append(error)
            finally:
                appended.set()

        def poll():
            try:
                barrier.wait(timeout=10)
                while not appended.is_set():
                    records.append(subscription.poll())
            except Exception as error:
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=append)] + [
                threading.Thread(target=poll) for _ in range(2)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
        assert errors == []
        records.append(subscription.poll())
        assert "incremental" in {record["mode"] for record in records[1:-1]}
        expected = EngineSession().answer(query, database).rows
        delivered = [row for record in records for row in record["delta"]]
        assert set(delivered) == expected
        assert len(delivered) == len(expected) == records[-1]["total"]
        assert subscription.polls == len(records)
