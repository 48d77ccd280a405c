"""Skew-aware sharding: hot-key broadcast spilling, the skew-checked shard
variable choice, and the estimates-vs-actuals record on results.

The contract under test is the soundness argument of
:meth:`Database.partition`'s hot-key spilling: every shard stays a subset
of the original database, non-hot rows stay confined to their hash shard,
and hot rows are found everywhere — so answer-union and satisfiability are
exact, while counting must combine by union (the session flips
``count_via``)."""

from repro.cq import generators as cqgen
from repro.cq.database import Database, Relation, shard_of
from repro.cq.homomorphism import naive_count_answers, naive_enumerate_answers
from repro.engine.session import EngineSession
from repro.engine.sharding import (
    _detect_hot_keys,
    choose_shard_variable,
    sharding_spec,
)


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
# Database.partition with hot keys
# ----------------------------------------------------------------------
def test_hot_key_partition_spills_to_broadcast_and_stays_sound():
    database = _hub_heavy_database()
    pieces = database.partition({"H": 0}, 4, hot_keys=(7,))
    all_rows = set(database.relation("H").tuples)
    union = set()
    hot_rows = {row for row in all_rows if row[0] == 7}
    for index, piece in enumerate(pieces):
        piece_rows = set(piece.relation("H").tuples)
        # Soundness: every piece is a subset of the original ...
        assert piece_rows <= all_rows
        # ... hot rows are replicated everywhere ...
        assert hot_rows <= piece_rows
        # ... and non-hot rows live exactly in their hash shard.
        for row in piece_rows - hot_rows:
            assert shard_of(row[0], 4) == index
        union |= piece_rows
    assert union == all_rows


def test_hot_key_partition_rebalances_the_hashed_rows():
    database = _hub_heavy_database()
    spilled = database.partition({"H": 0}, 4, hot_keys=(7,))
    plain = database.partition({"H": 0}, 4)
    # Without spilling, the hub shard dwarfs the others; with it, per-shard
    # load (minus the shared broadcast copies) is near fair share.
    hot = sum(1 for row in database.relation("H").tuples if row[0] == 7)
    residual = [len(piece.relation("H")) - hot for piece in spilled]
    fair = (len(database.relation("H")) - hot) / 4
    assert max(residual) <= fair + max(3, 0.5 * fair), (
        f"hashed remainder unbalanced: {residual}"
    )
    plain_loads = [len(piece.relation("H")) for piece in plain]
    assert max(plain_loads) > max(residual) + hot / 2, (
        "the test database is not skewed enough to exercise spilling"
    )


def test_partition_without_hot_keys_is_exactly_disjoint():
    database = _hub_heavy_database()
    pieces = database.partition({"H": 0}, 4)
    rows = [set(piece.relation("H").tuples) for piece in pieces]
    for i in range(4):
        for j in range(i + 1, 4):
            assert not rows[i] & rows[j]
    assert set.union(*rows) == set(database.relation("H").tuples)


# ----------------------------------------------------------------------
# Hot-key detection and the skew-checked shard variable
# ----------------------------------------------------------------------
def test_detect_hot_keys_finds_the_hub():
    database = _hub_heavy_database()
    hot = _detect_hot_keys(database, {"H": 0}, 4)
    assert 7 in hot
    # The value column is near-unique: nothing there is hot.
    assert _detect_hot_keys(database, {"H": 1}, 4) == ()


def test_detect_hot_keys_ignores_uniform_columns():
    query = cqgen.star_query(3)
    database = cqgen.random_database(query, 8, 60, seed=5)
    columns = {f"R{i}": 0 for i in range(3)}
    assert _detect_hot_keys(database, columns, 4) == ()


def test_choose_shard_variable_avoids_hub_concentrated_candidates():
    from repro.cq.query import Atom, ConjunctiveQuery

    # a and b both occur in every atom; column a is hub-heavy, b uniform.
    query = ConjunctiveQuery([Atom("R", ["a", "b"]), Atom("S", ["a", "b"])])
    database = Database()
    for name in ("R", "S"):
        relation = Relation(name, 2)
        for i in range(100):
            relation.add((0 if i % 2 else i, i))  # half the rows share a=0
        database.add_relation(relation)
    # Structure alone ties a and b; repr-max picks "b" — which is uniform,
    # so data cannot improve on it...
    assert choose_shard_variable(query) == "b"
    assert choose_shard_variable(query, database) == "b"
    # ...but when the repr-max default is the hot column, the data steers
    # the choice to the cool candidate.
    flipped = ConjunctiveQuery([Atom("R", ["c", "b"]), Atom("S", ["c", "b"])])
    database_flipped = Database()
    for name in ("R", "S"):
        relation = Relation(name, 2)
        for i in range(100):
            relation.add((i, 0 if i % 2 else i))  # now repr-max "c" is cool
        database_flipped.add_relation(relation)
    assert choose_shard_variable(flipped) == "c"
    assert choose_shard_variable(flipped, database_flipped) == "c"


def test_sharding_spec_records_hot_keys_in_rationale():
    query = cqgen.star_query(3)
    database = cqgen.hub_database(
        query, 30, 200, seed=1, hub_variables=("c",), hot_values=1
    )
    spec = sharding_spec(query, 4, shard_variable="c", database=database)
    assert spec.hot_keys, "a 90%-concentrated hub must be detected hot"
    assert "hot" in spec.rationale
    cold = sharding_spec(query, 4, shard_variable="c")
    assert cold.hot_keys == ()


# ----------------------------------------------------------------------
# End to end: hot keys through the session, all three tasks exact
# ----------------------------------------------------------------------
def test_sharded_execution_with_hot_keys_stays_exact():
    query = cqgen.star_query(3)
    database = cqgen.hub_database(
        query, 30, 200, seed=2, hub_variables=("c",), hot_values=1
    )
    expected_rows = naive_enumerate_answers(query, database)
    expected_count = naive_count_answers(query, database)
    session = EngineSession()
    for shards in (2, 4):
        answered = session.answer(query, database, shards=shards, shard_variable="c")
        record = answered.sharding
        assert record["hot_keys"], "spilling never engaged on a hub workload"
        assert answered.rows == expected_rows
        counted = session.count(query, database, shards=shards, shard_variable="c")
        assert counted.count == expected_count
        # Hot keys break per-shard count disjointness: the session must have
        # combined by union, not by sum.
        assert counted.sharding["count_via"] == "union"
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
    assert "hot_keys" in record
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
