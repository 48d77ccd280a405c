"""Sharding under skew: exact disjoint partitions of hub-heavy data, the
query-only shard variable choice, exact answers and counts on hub data, and
the estimates-vs-actuals record on results.

Hub values hash to one shard like any other value: that shard carries more
than its share, which costs balance, never exactness — with a free shard
variable the per-shard answer sets stay disjoint, so counts add
(``count_via == "sum"``)."""

from repro.cq import generators as cqgen
from repro.cq.database import Database, Relation
from repro.cq.homomorphism import naive_count_answers, naive_enumerate_answers
from repro.cq.query import Atom, ConjunctiveQuery
from repro.engine.session import EngineSession
from repro.engine.sharding import choose_shard_variable


def _hub_heavy_database(rows=200, hub_value=7, hub_fraction=0.8, seed=3):
    """H(h, x): ``hub_fraction`` of the rows share one hub value."""
    import random

    rng = random.Random(seed)
    relation = Relation("H", 2)
    for i in range(rows):
        h = hub_value if rng.random() < hub_fraction else rng.randrange(50)
        relation.add((h, i))
    database = Database()
    database.add_relation(relation)
    return database


# ----------------------------------------------------------------------
# Database.partition on hub-heavy data
# ----------------------------------------------------------------------
def test_partition_without_hot_keys_is_exactly_disjoint():
    database = _hub_heavy_database()
    pieces = database.partition({"H": 0}, 4)
    rows = [set(piece.relation("H").tuples) for piece in pieces]
    for i in range(4):
        for j in range(i + 1, 4):
            assert not rows[i] & rows[j]
    assert set.union(*rows) == set(database.relation("H").tuples)


# ----------------------------------------------------------------------
# The shard variable is chosen from the query alone
# ----------------------------------------------------------------------
def test_a_structural_tie_on_a_hot_column_shards_on_it_exactly():
    # a and b both occur in every atom, so the tie goes to repr-max "b",
    # although half of the rows share b = 0: the hub lands on one shard.
    query = ConjunctiveQuery([Atom("R", ["a", "b"]), Atom("S", ["a", "b"])])
    database = Database()
    for name in ("R", "S"):
        relation = Relation(name, 2)
        for i in range(100):
            relation.add((i, 0 if i % 2 else i))
        database.add_relation(relation)
    assert choose_shard_variable(query) == "b"
    expected_rows = naive_enumerate_answers(query, database)
    session = EngineSession()
    for shards in (2, 4):
        answered = session.answer(query, database, shards=shards)
        assert answered.sharding["shard_variable"] == "b"
        assert answered.rows == expected_rows
        counted = session.count(query, database, shards=shards)
        assert counted.count == len(expected_rows)
        assert counted.sharding["count_via"] == "sum"


# ----------------------------------------------------------------------
# End to end: hub data through the session, all three tasks exact
# ----------------------------------------------------------------------
def test_sharded_execution_on_hub_data_stays_exact_and_counts_by_sum():
    query = cqgen.star_query(3)
    database = cqgen.hub_database(
        query, 30, 200, seed=2, hub_variables=("c",), hot_values=1
    )
    assert "c" in query.free_variables
    expected_rows = naive_enumerate_answers(query, database)
    expected_count = naive_count_answers(query, database)
    session = EngineSession()
    for shards in (2, 4):
        answered = session.answer(query, database, shards=shards, shard_variable="c")
        assert answered.rows == expected_rows
        assert "hot_keys" not in answered.sharding
        counted = session.count(query, database, shards=shards, shard_variable="c")
        assert counted.count == expected_count
        # The hub shard variable is free: the per-shard answer sets are
        # disjoint, so the session adds the per-shard counts.
        assert counted.sharding["count_via"] == "sum"
        boolean = session.is_satisfiable(
            query, database, shards=shards, shard_variable="c"
        )
        assert boolean.satisfiable == bool(expected_rows)


def test_eval_result_stats_record_is_populated():
    # A three-relation join pool exercises the cost path; the executor must
    # surface the ledger movement as timings["stats"] / EvalResult.stats.
    query = cqgen.clique_query(3)
    database = cqgen.zipf_database(query, 40, 300, seed=4)
    session = EngineSession()
    result = session.answer(query, database)
    assert result.stats is not None
    assert result.stats["mode"] == "cost-based"
    assert result.stats["cost_joins"] > 0
    assert result.stats["actual_rows"] >= 0

    sharded = session.answer(query, database, shards=2)
    record = sharded.timings["stats"]
    assert record["mode"] == "cost-based"


def test_eval_result_stats_estimates_equal_actuals_on_the_hot_pair_triangle():
    # The skewed_answer benchmark's hot-pair triangle at its small scale:
    # the cost-chosen join shares one column, where the estimate is the
    # exact join size (the dot product of two degree vectors).
    import importlib.util
    import pathlib

    path = (
        pathlib.Path(__file__).resolve().parents[2]
        / "benchmarks" / "bench_engine_scaling.py"
    )
    spec = importlib.util.spec_from_file_location("bench_engine_scaling", path)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    _label, key_domain, value_domain, tuples = bench.SKEWED_SCALES[0]
    database = bench._skewed_join_database(key_domain, value_domain, tuples)
    result = EngineSession().answer(bench._skewed_join_query(), database)
    assert result.stats["cost_joins"] == 1
    assert result.stats["estimated_rows"] == result.stats["actual_rows"] > 0
