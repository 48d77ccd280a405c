"""An engine call's behaviour and reported numbers depend only on its
caller, its session and its database: concurrent calls on one session keep
their own join records, a forced join ordering stays on the thread that
forced it, a session holds no per-database state beyond its bounded
caches, and one session's ``stats()`` does not move when another session
runs."""

import sys
import threading
import time

from repro.cq import generators as cqgen
from repro.cq.statistics import ORDERING_COST, ORDERING_STATIC, forced_join_ordering
from repro.engine import EngineSession, LRUCache
import repro.engine.session as session_module


def _clique3():
    query = cqgen.clique_query(3)
    return query, cqgen.zipf_database(query, 40, 300, seed=4)


def _clique4():
    query = cqgen.clique_query(4)
    return query, cqgen.zipf_database(query, 30, 200, seed=5)


def test_concurrent_join_records_equal_their_serial_records():
    # Four threads (two per query) on one session for a second, switching
    # often: every call's record must be its query's serial record.
    session = EngineSession()
    instances = [_clique3(), _clique4()]
    serial = [session.answer(query, database).stats for query, database in instances]
    assert serial[0] != serial[1]
    assert all(record["cost_joins"] > 0 for record in serial)
    mismatches: list = []
    calls = [0] * 4
    start = threading.Barrier(4)

    def loop(slot):
        index = slot % 2
        query, database = instances[index]
        start.wait()
        deadline = time.perf_counter() + 1.0
        while time.perf_counter() < deadline:
            record = session.answer(query, database).stats
            calls[slot] += 1
            if record != serial[index]:
                mismatches.append((index, record))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-4)
    try:
        threads = [threading.Thread(target=loop, args=(slot,)) for slot in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert min(calls) > 5
    assert mismatches == []


def test_a_forced_ordering_stays_on_its_thread():
    session = EngineSession()
    query, database = _clique3()
    held = threading.Event()
    release = threading.Event()
    forced_records: list = []

    def hold_static():
        with forced_join_ordering(ORDERING_STATIC):
            held.set()
            release.wait(30)
            forced_records.append(session.answer(query, database).stats)

    thread = threading.Thread(target=hold_static)
    thread.start()
    try:
        assert held.wait(30)
        records = [session.answer(query, database).stats for _ in range(20)]
    finally:
        release.set()
        thread.join(30)
    assert not thread.is_alive()
    for record in records:
        assert record["mode"] == ORDERING_COST
        assert record["cost_joins"] > 0
    assert [record["mode"] for record in forced_records] == [ORDERING_STATIC]
    assert forced_records[0]["cost_joins"] == 0


def test_a_session_holds_no_more_than_its_cache_bounds(monkeypatch):
    # 1,000 short-lived databases, each answered plainly and as a sharded
    # count: nothing the session keeps may grow with the database count.
    for name, size in (
        ("ANALYSIS_CACHE_SIZE", 16),
        ("CORE_CACHE_SIZE", 16),
        ("PLAN_CACHE_SIZE", 16),
        ("PARTITION_CACHE_SIZE", 4),
    ):
        monkeypatch.setattr(session_module, name, size)
    session = EngineSession()
    query = cqgen.hub_cycle_query(3)
    for seed in range(1000):
        database = cqgen.random_database(query, 4, 6, seed=seed)
        session.answer(query, database)
        session.count(query, database, shards=2)
    for name, value in vars(session).items():
        if isinstance(value, LRUCache):
            assert len(value) <= value.maxsize, name
        elif isinstance(value, (dict, set, list, tuple)):
            assert len(value) <= 16, (name, len(value))


def test_a_sessions_stats_ignore_other_sessions_calls():
    # Two tenants on one database: B's calls touch the shared columnar
    # store, the process join totals and the memo counters, and must leave
    # A's report as it was.
    query, database = _clique3()
    tenant_a, tenant_b = EngineSession(), EngineSession()
    tenant_a.answer(query, database)
    tenant_a.count(query, database, shards=2)
    before = tenant_a.stats()
    tenant_b.answer(query, database)
    tenant_b.count(query, database, shards=2)
    tenant_b.answer_many([query, cqgen.clique_query(4)], database)
    assert tenant_a.stats() == before
