"""The columnar backend through the engine: dispatch for the decomposition
strategies, the store's place on its database, and the sharded +
worker execution paths evaluating columnar-side.  The evidence that the
kernel ran is each database's own columnar store: every columnar
evaluation looks up the view of each of the query's atoms there once.
"""

import pytest

from repro.cq import generators as cqgen
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
from repro.engine.runtime import _REPLY_OK, _WORKER_RESIDENT, _worker_execute


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


def test_counts_match_the_naive_solver_on_projections(session):
    # Non-full counting stays in id space (length of the projected columnar
    # result, no decode); it must agree with the naive solver's
    # enumerate+len.
    query = cqgen.cycle_query(4).project(["x0", "x1"])
    database = cqgen.random_database(query, 6, 60, seed=33)
    counted = session.count(query, database).count
    assert counted == naive_count_answers(query, database)
    assert counted == len(naive_enumerate_answers(query, database))


def test_columnar_store_reports_on_its_database(session, acyclic):
    query, database = acyclic
    assert database.columnar_cache is None
    session.answer(query, database)
    session.answer(query, database)  # repeat: view-cache hits
    info = database.columnar_cache.info()
    assert info["size"] > 0
    assert info["misses"] > 0
    assert info["hits"] > 0
    assert info["dictionary_size"] == len(database.columnar_cache.interner)
    assert "columnar_view_cache" not in session.stats()


def test_clear_cache_keeps_the_databases_columnar_store(session, acyclic):
    # The store belongs to the database: clearing the session's caches
    # leaves it, and the database drops it.
    query, database = acyclic
    session.answer(query, database)
    store = database.columnar_cache
    session.clear_cache()
    assert database.columnar_cache is store
    database.drop_columnar()
    assert database.columnar_cache is None
    assert session.answer(query, database).rows == naive_enumerate_answers(
        query, database
    )


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
    # (1 + 2 + 4 databases): the database itself, then the cached pieces.
    pieces = [database] + [
        piece
        for _key, (_database, shard_pieces, _versions) in session._partition_cache.snapshot()
        for piece in shard_pieces
    ]
    assert len(pieces) == 7
    assert all(_columnar_lookups(piece) == len(query.atoms) for piece in pieces)


def test_worker_execution_path_is_columnar(acyclic):
    # _worker_execute is the exact function a process-pool worker runs;
    # calling it in-process shows shards evaluate columnar-side on workers
    # too.  The payload is what the coordinator ships on first routing:
    # the pickled delta from version zero, applied to a new database whose
    # id tables it builds.
    import pickle

    query, database = acyclic
    payload = pickle.dumps(database.to_wire(), protocol=pickle.HIGHEST_PROTOCOL)
    reply = _worker_execute(
        ("token-columnar-test", payload, TASK_ANSWER, query, False,
         STRATEGY_YANNAKAKIS)
    )
    assert reply[0] == _REPLY_OK
    assert reply[1] == naive_enumerate_answers(query, database)
    resident = _WORKER_RESIDENT.pop("token-columnar-test")
    assert _columnar_lookups(resident) == len(query.atoms)
