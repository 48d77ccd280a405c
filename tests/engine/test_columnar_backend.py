"""The columnar backend through the engine: dispatch for the decomposition
strategies, session stats / clear_cache integration, and the sharded +
worker execution paths evaluating columnar-side.  The evidence that the
kernel ran is each database's own columnar store: every columnar
evaluation looks up the view of each of the query's atoms there once.
"""

import pytest

from repro.cq import generators as cqgen
from repro.cq.decomposition_eval import decomposition_enumerate_answers
from repro.cq.homomorphism import naive_count_answers, naive_enumerate_answers
from repro.engine import (
    ColumnarBackend,
    EngineSession,
    LRUCache,
    STRATEGY_GHD,
    STRATEGY_YANNAKAKIS,
    TASK_ANSWER,
    backend_for,
)
from repro.engine.runtime import (
    _REPLY_OK,
    _SHIP_FULL,
    _WORKER_RESIDENT,
    _worker_execute,
)


@pytest.fixture
def session():
    return EngineSession()


@pytest.fixture
def acyclic():
    query = cqgen.chain_query(4)
    return query, cqgen.random_database(query, 6, 50, seed=31)


@pytest.fixture
def cyclic():
    query = cqgen.cycle_query(5)
    return query, cqgen.random_database(query, 7, 60, seed=32)


def _columnar_lookups(database) -> int:
    store = database.columnar_cache
    if store is None:
        return 0
    info = store.info()
    return info["hits"] + info["misses"]


def test_decomposition_strategies_default_to_columnar():
    for strategy in (STRATEGY_YANNAKAKIS, STRATEGY_GHD):
        backend = backend_for(strategy)
        assert isinstance(backend, ColumnarBackend)
        assert backend.name == strategy


def test_default_dispatch_executes_columnar(session, acyclic, cyclic):
    # The coverage-guard mechanism itself: every evaluation through a
    # decomposition strategy looks up each atom's view in the database's
    # columnar store once.
    for (query, database), strategy in ((acyclic, STRATEGY_YANNAKAKIS), (cyclic, STRATEGY_GHD)):
        assert database.columnar_cache is None
        result = session.answer(query, database)
        assert result.plan.strategy == strategy
        assert result.rows == naive_enumerate_answers(query, database)
        session.count(query, database)
        session.is_satisfiable(query, database)
        assert _columnar_lookups(database) == 3 * len(query.atoms)


def test_counts_match_tuple_set_kernel_on_projections(session):
    # Non-full counting stays in id space (length of the projected columnar
    # result, no decode); it must agree with the tuple-set reference
    # evaluator's enumerate+len on the same plan.
    query = cqgen.cycle_query(4).project(["x0", "x1"])
    database = cqgen.random_database(query, 6, 60, seed=33)
    counted = session.count(query, database).count
    assert counted == naive_count_answers(query, database)
    plan = session.plan(query)
    assert counted == len(
        decomposition_enumerate_answers(plan.query, database, plan.decomposition)
    )


def test_session_stats_report_columnar_view_cache(session, acyclic):
    query, database = acyclic
    empty = session.stats()["columnar_view_cache"]
    assert empty == {
        "databases": 0, "interned": 0, "views": 0,
        "hits": 0, "misses": 0, "dictionary_size": 0,
    }
    session.answer(query, database)
    session.answer(query, database)  # repeat: view-cache hits
    report = session.stats()["columnar_view_cache"]
    assert report["databases"] == 1
    assert report["interned"] == 1
    assert report["views"] > 0
    assert report["misses"] > 0
    assert report["hits"] > 0
    assert report["dictionary_size"] == len(database.columnar_cache.interner)


def test_clear_cache_drops_columnar_views(session, acyclic):
    query, database = acyclic
    session.answer(query, database)
    assert database.columnar_cache is not None
    session.clear_cache()
    assert database.columnar_cache is None
    assert session.stats()["columnar_view_cache"]["databases"] == 0


def test_stats_survive_garbage_collected_databases(session):
    query = cqgen.chain_query(3)
    database = cqgen.random_database(query, 5, 30, seed=34)
    session.answer(query, database)
    del database
    import gc

    gc.collect()
    report = session.stats()["columnar_view_cache"]
    assert report["databases"] == 0  # weakly tracked: nothing kept alive


def test_lru_cache_stats_alias():
    cache = LRUCache(4)
    cache.get("missing")
    cache.put("k", 1)
    cache.get("k")
    assert cache.stats() == cache.info()
    assert cache.stats()["hits"] == 1 and cache.stats()["misses"] == 1


def test_sharded_execution_is_columnar_per_shard(session, acyclic):
    query, database = acyclic
    expected = naive_enumerate_answers(query, database)
    for shards in (1, 2, 4):
        result = session.answer(query, database, shards=shards, shard_variable="x0")
        assert result.rows == expected
    # Every shard of every call evaluated columnar-side on its own piece
    # (1 + 2 + 4 databases), and the resident pieces are tracked by stats.
    report = session.stats()["columnar_view_cache"]
    assert report["interned"] == 7
    assert report["hits"] + report["misses"] == 7 * len(query.atoms)


def test_worker_execution_path_is_columnar(acyclic):
    # _worker_execute is the exact function a process-pool worker runs;
    # calling it in-process shows shards evaluate columnar-side on workers
    # too.  The payload is what the coordinator ships on first routing: a
    # full-ship tag over pickled DatabaseWire bytes, decoded straight into
    # a warm columnar store.
    import pickle

    query, database = acyclic
    payload = (
        _SHIP_FULL,
        pickle.dumps(database.to_wire(), protocol=pickle.HIGHEST_PROTOCOL),
    )
    reply = _worker_execute(
        ("token-columnar-test", payload, TASK_ANSWER, query, False,
         STRATEGY_YANNAKAKIS)
    )
    assert reply[0] == _REPLY_OK
    assert reply[1] == naive_enumerate_answers(query, database)
    resident = _WORKER_RESIDENT.pop("token-columnar-test")
    assert _columnar_lookups(resident) == len(query.atoms)
