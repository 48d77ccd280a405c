"""The sharding layer: stable hash partitioning, the spec fallback ladder,
``Database.partition``, ``ShardedDatabase``, and the session's resident
pieces under concurrent appends."""

import enum
import sys
import threading
import time

import numpy as np
import pytest

from repro.cq import Atom, ConjunctiveQuery, Database
from repro.cq import generators as cqgen
from repro.cq.database import Relation
from repro.cq.homomorphism import naive_enumerate_answers
from repro.engine import (
    SHARD_MODE_BROADCAST,
    SHARD_MODE_COPARTITIONED,
    SHARD_MODE_SINGLE,
    EngineSession,
    ShardedDatabase,
    choose_shard_variable,
    sharding_spec,
)


class _StrColour(str, enum.Enum):
    RED = "red"


class _IntColour(enum.IntEnum):
    BLUE = 3


class _Money:
    """A user value equal to (and hashing like) the plain number it wraps."""

    def __init__(self, amount):
        self.amount = amount

    def __eq__(self, other):
        return self.amount == (other.amount if isinstance(other, _Money) else other)

    def __hash__(self):
        return hash(self.amount)

    def __repr__(self):
        return f"_Money({self.amount})"


class _Opaque:
    """Every instance equal, with the default identity-based repr."""

    def __eq__(self, other):
        return isinstance(other, _Opaque)

    def __hash__(self):
        return 7


class _Token:
    """Compared by identity: each instance is its own value."""


def _pieces_holding(pieces, name, predicate) -> set:
    """The indexes of the pieces holding a row of ``name`` that satisfies
    ``predicate``."""
    return {
        index
        for index, piece in enumerate(pieces)
        if any(predicate(row) for row in piece.relation(name).tuples)
    }


class TestRoutingByInternedId:
    """``Database.partition`` sends a row to the interned id of its key
    value modulo the shard count: equal values share one id, so they share
    a piece whatever their types."""

    def test_one_database_and_call_order_give_one_cut(self):
        query = cqgen.hub_cycle_query(3)
        first = cqgen.random_database(query, 10, 50, seed=13)
        second = cqgen.random_database(query, 10, 50, seed=13)
        for shards in (2, 3, 4, 8):
            cut = first.partition({"H0": 0, "H1": 1}, shards)
            assert cut == first.partition({"H0": 0, "H1": 1}, shards)
            assert cut == second.partition({"H0": 0, "H1": 1}, shards)

    def test_a_single_shard_holds_every_row(self):
        query = cqgen.hub_cycle_query(3)
        database = cqgen.random_database(query, 10, 50, seed=13)
        (piece,) = database.partition({"H0": 0}, 1)
        assert piece.relation("H0").tuples == database.relation("H0").tuples

    def test_spreads_small_integer_domains(self):
        # The generators draw values from range(domain); a rule that lumped
        # them into one shard would make sharding a no-op silently.  The
        # key column is interned after a column of other values.
        database = Database()
        for value in range(32):
            database.add_fact("R", (f"s{value}", value))
        pieces = database.partition({"R": 1}, 4)
        assert all(len(piece.relation("R")) == 8 for piece in pieces)

    def test_rejects_a_shard_count_below_one(self):
        database = Database()
        database.add_fact("R", (1, 2))
        for shards in (0, -1):
            with pytest.raises(ValueError, match="shards"):
                database.partition({"R": 0}, shards)
            with pytest.raises(ValueError, match="shards"):
                EngineSession().answer(
                    ConjunctiveQuery([Atom("R", ["x", "y"])]), database, shards=shards
                )
        assert database.columnar_cache is None, "a refused cut interned nothing"

    def test_equal_values_share_a_shard_across_types(self):
        # Python equality crosses the numeric tower (True == 1 == 1.0) and
        # sets/dicts unify such values, so sharding MUST route them
        # identically — the disjointness argument is an equality argument.
        from decimal import Decimal
        from fractions import Fraction

        for group in (
            [True, 1, 1.0, Decimal(1), Fraction(1)],
            [False, 0, 0.0],
            [0.5, Fraction(1, 2), Decimal("0.5")],
            [(1, True), (1, 1), (1.0, 1)],
            [10**30, Fraction(10**30), Decimal(10**30)],
            # Subclass values that compare equal to their base value.
            [_StrColour.RED, "red"],
            [_IntColour.BLUE, 3, 3.0],
            [range(0), range(5, 5)],
            [range(2, 8, 2), range(2, 7, 2)],
            [np.True_, 1, _Money(1)],
        ):
            database = Database()
            for index, value in enumerate(group):
                database.add_fact("R", (value, index))
            for shards in (2, 3, 4, 8):
                pieces = database.partition({"R": 0}, shards)
                assert sum(len(piece.relation("R")) for piece in pieces) == len(group)
                assert len(_pieces_holding(pieces, "R", lambda row: True)) == 1, (
                    group, shards
                )

    def test_values_compared_by_identity_or_a_user_eq_shard_exactly(self):
        # Routing never reads a repr: an identity-compared value is its own
        # class, and instances a user __eq__ unifies share one id.
        query = ConjunctiveQuery([Atom("R", ["h", "x"]), Atom("S", ["h", "y"])])
        tokens = [_Token() for _ in range(6)]
        database = Database()
        for index, token in enumerate(tokens):
            database.add_fact("R", (token, f"r{index}"))
            database.add_fact("S", (tokens[index // 2 * 2], f"s{index}"))
        database.add_fact("R", (_Opaque(), "ra"))
        database.add_fact("S", (_Opaque(), "sa"))
        expected = naive_enumerate_answers(query, database)
        assert len(expected) == 7
        session = EngineSession()
        for shards in (2, 3, 4, 8):
            assert session.answer(query, database, shards=shards).rows == expected
            assert session.count(query, database, shards=shards).count == 7

    def test_mixed_type_equal_hub_values_answer_exactly(self):
        # End-to-end regression: a satisfying assignment whose facts spell
        # the same hub value as True, 1, and 1.0 must survive sharding.
        query = cqgen.hub_cycle_query(3)
        database = Database()
        database.add_fact("H0", (True, "a", "b"))
        database.add_fact("H1", (1, "b", "c"))
        database.add_fact("H2", (1.0, "c", "a"))
        expected = naive_enumerate_answers(query, database)
        assert expected, "the planted assignment must satisfy the query"
        session = EngineSession()
        for shards in (2, 3, 4, 8):
            assert session.answer(query, database, shards=shards).rows == expected
            assert session.is_satisfiable(query, database, shards=shards).satisfiable

    @pytest.mark.parametrize(
        "hub,other", [(np.True_, 1), (_Money(5), 5)], ids=["numpy-bool", "user-type"]
    )
    def test_values_equal_across_types_join_at_every_shard_count(self, hub, other):
        # A value equal to an int of another type, whose repr differs:
        # routing by repr put np.True_ and 1 on different shards at 4 and
        # 8 shards, and _Money(5) and 5 at 3 and 8.
        query = ConjunctiveQuery([Atom("R", ["h", "x"]), Atom("S", ["h", "y"])])
        database = Database()
        database.add_fact("R", (hub, "a"))
        database.add_fact("S", (other, "b"))
        expected = naive_enumerate_answers(query, database)
        assert len(expected) == 1
        session = EngineSession()
        for shards in (2, 3, 4, 8):
            assert session.answer(query, database, shards=shards).rows == expected
            assert session.count(query, database, shards=shards).count == 1


class TestChooseShardVariable:
    def test_prefers_the_highest_frequency_variable(self):
        assert choose_shard_variable(cqgen.hub_cycle_query(5)) == "h"
        assert choose_shard_variable(cqgen.star_query(4)) == "c"

    def test_no_variables_means_none(self):
        assert choose_shard_variable(ConjunctiveQuery([])) is None
        from repro.cq.query import Constant

        constants_only = ConjunctiveQuery([Atom("R", [Constant(1)])])
        assert choose_shard_variable(constants_only) is None

    def test_deterministic_tie_break(self):
        query = ConjunctiveQuery([Atom("R", ["a", "b"])])
        assert choose_shard_variable(query) == choose_shard_variable(query)


class TestShardingSpec:
    def test_copartitioned_when_every_atom_has_the_variable(self):
        spec = sharding_spec(cqgen.hub_cycle_query(4), 4)
        assert spec.mode == SHARD_MODE_COPARTITIONED
        assert spec.shard_variable == "h"
        assert set(spec.partition_columns) == {"H0", "H1", "H2", "H3"}
        assert all(column == 0 for column in spec.partition_columns.values())
        assert spec.broadcast_relations == ()
        assert spec.is_sharded

    def test_broadcast_when_some_atoms_lack_it(self):
        spec = sharding_spec(cqgen.cycle_query(5), 4, shard_variable="x0")
        assert spec.mode == SHARD_MODE_BROADCAST
        # x0 occurs in R4(x4, x0) and R0(x0, x1) only.
        assert set(spec.partition_columns) == {"R0", "R4"}
        assert set(spec.broadcast_relations) == {"R1", "R2", "R3"}
        assert "broadcast" in spec.rationale

    def test_single_shard_when_one_shard_requested(self):
        spec = sharding_spec(cqgen.hub_cycle_query(4), 1)
        assert spec.mode == SHARD_MODE_SINGLE
        assert not spec.is_sharded

    def test_single_shard_when_no_variables(self):
        spec = sharding_spec(ConjunctiveQuery([]), 4)
        assert spec.mode == SHARD_MODE_SINGLE
        assert spec.shard_variable is None

    def test_unknown_variable_rejected(self):
        with pytest.raises(ValueError, match="does not occur"):
            sharding_spec(cqgen.hub_cycle_query(4), 4, shard_variable="zz")
        # The typo must raise on every query shape — the zero-atom and
        # shards=1 fallbacks must not mask it.
        with pytest.raises(ValueError, match="does not occur"):
            sharding_spec(ConjunctiveQuery([]), 4, shard_variable="zz")
        with pytest.raises(ValueError, match="does not occur"):
            sharding_spec(cqgen.hub_cycle_query(4), 1, shard_variable="zz")

    def test_inconsistent_self_join_positions_fall_back(self):
        # E(x, y) AND E(y, x): x sits at column 0 in one atom and column 1
        # in the other, so no single partition column serves both — the
        # relation cannot be partitioned and the ladder bottoms out.
        query = ConjunctiveQuery([Atom("E", ["x", "y"]), Atom("E", ["y", "x"])])
        spec = sharding_spec(query, 4, shard_variable="x")
        assert spec.mode == SHARD_MODE_SINGLE
        assert "single-shard" in spec.rationale

    def test_consistent_self_join_positions_copartition(self):
        # E(h, x) AND E(h, y): both atoms carry h at column 0.
        query = ConjunctiveQuery([Atom("E", ["h", "x"]), Atom("E", ["h", "y"])])
        spec = sharding_spec(query, 4, shard_variable="h")
        assert spec.mode == SHARD_MODE_COPARTITIONED
        assert spec.partition_columns == {"E": 0}


class TestDatabasePartition:
    @pytest.fixture
    def database(self):
        query = cqgen.hub_cycle_query(3)
        return cqgen.random_database(query, 10, 50, seed=13)

    def test_partition_is_exact_and_disjoint(self, database):
        pieces = database.partition(
            {"H0": 0, "H1": 0, "H2": 0}, 4
        )
        assert len(pieces) == 4
        for name in ("H0", "H1", "H2"):
            rebuilt = set()
            total = 0
            for piece in pieces:
                rows = piece.relation(name).tuples
                assert not rebuilt & rows, "tuple present in two shards"
                rebuilt |= rows
                total += len(rows)
            assert rebuilt == database.relation(name).tuples
            assert total == len(database.relation(name))

    def test_tuples_routed_by_key_column(self, database):
        pieces = database.partition({"H0": 1}, 3)
        ids = database.columnar_cache.interner
        for index, piece in enumerate(pieces):
            for row in piece.relation("H0").tuples:
                assert ids.id_of(row[1]) % 3 == index

    def test_broadcast_relations_replicated(self, database):
        pieces = database.partition({"H0": 0}, 3, broadcast=("H1", "H2"))
        for piece in pieces:
            assert piece.relation("H1").tuples == database.relation("H1").tuples
            assert piece.relation("H2").tuples == database.relation("H2").tuples
            assert not piece.has_relation("unrelated")

    def test_unlisted_relations_omitted(self, database):
        pieces = database.partition({"H0": 0}, 2)
        assert all(not piece.has_relation("H1") for piece in pieces)

    def test_validation(self, database):
        with pytest.raises(ValueError, match="shards"):
            database.partition({"H0": 0}, 0)
        with pytest.raises(KeyError, match="missing"):
            database.partition({"missing": 0}, 2)
        with pytest.raises(ValueError, match="out of range"):
            database.partition({"H0": 9}, 2)
        with pytest.raises(ValueError, match="both partitioned and broadcast"):
            database.partition({"H0": 0}, 2, broadcast=("H0",))

    def test_partition_is_deterministic(self, database):
        first = database.partition({"H0": 0, "H1": 0, "H2": 0}, 4)
        second = database.partition({"H0": 0, "H1": 0, "H2": 0}, 4)
        for a, b in zip(first, second):
            assert a == b


class TestShardedDatabase:
    def test_partition_for_query(self):
        query = cqgen.hub_cycle_query(3)
        database = cqgen.random_database(query, 10, 50, seed=13)
        sharded = ShardedDatabase.partition(database, query, 4)
        assert len(sharded) == 4
        assert sharded.spec.mode == SHARD_MODE_COPARTITIONED
        assert sharded.total_tuples() == database.total_tuples()

    def test_single_shard_shares_the_database(self):
        query = cqgen.hub_cycle_query(3)
        database = cqgen.random_database(query, 10, 20, seed=13)
        sharded = ShardedDatabase.partition(database, query, 1)
        assert len(sharded) == 1
        assert sharded.shards[0] is database

    def test_missing_query_relation_stays_missing(self):
        query = cqgen.hub_cycle_query(3)
        database = Database()
        database.add_fact("H0", ("a", "b", "c"))
        sharded = ShardedDatabase.partition(database, query, 2)
        for piece in sharded:
            assert not piece.has_relation("H1")

    def test_each_hub_value_lives_in_one_piece(self):
        # Co-partitioning: every fact carrying a hub value, in any of the
        # query's relations, lives in the one piece its id picks.
        query = cqgen.hub_cycle_query(3)
        database = cqgen.random_database(query, 10, 50, seed=13)
        sharded = ShardedDatabase.partition(database, query, 4)
        ids = database.columnar_cache.interner
        for value in range(10):
            holders = set()
            for name in ("H0", "H1", "H2"):
                holders |= _pieces_holding(
                    sharded.shards, name, lambda row: row[0] == value
                )
            assert holders == {ids.id_of(value) % 4}


def _plant_wheel(database, hub) -> None:
    """Append one satisfying assignment of ``hub_cycle_query(3)`` around
    ``hub``: one row per relation, all on the hub's shard."""
    for index in range(3):
        database.add_fact(
            f"H{index}", (hub, f"{hub}{index}", f"{hub}{(index + 1) % 3}")
        )


class TestResidentPiecesUnderAppends:
    """A row appended while the session cuts or extends its resident pieces
    must reach every later sharded call: the session reads each relation's
    version before the rows that version covers, so such a row lies past
    the recorded version and the next call routes it."""

    @staticmethod
    def _wheel():
        query = cqgen.hub_cycle_query(3)
        database = Database()
        for hub in ("a", "b"):
            _plant_wheel(database, hub)
        return query, database

    def test_rows_appended_right_after_the_cut_reach_later_calls(
        self, monkeypatch
    ):
        query, database = self._wheel()
        cut = ShardedDatabase.partition.__func__
        planted = []

        def cut_then_append(cls, *args, **kwargs):
            sharded = cut(cls, *args, **kwargs)
            if not planted:
                planted.append(True)
                _plant_wheel(database, "c")
            return sharded

        monkeypatch.setattr(ShardedDatabase, "partition", classmethod(cut_then_append))
        session = EngineSession()
        session.answer(query, database, shards=2)
        monkeypatch.undo()
        assert planted
        expected = naive_enumerate_answers(query, database)
        assert len(expected) == 3
        assert session.answer(query, database, shards=2).rows == expected

    def test_rows_appended_while_pieces_extend_reach_later_calls(
        self, monkeypatch
    ):
        query, database = self._wheel()
        session = EngineSession()
        session.answer(query, database, shards=2)
        # A row completing no wheel: the next call has pieces to extend.
        database.add_fact("H0", ("z", "z0", "z1"))
        delta_since = Relation.delta_since
        planted = []

        def delta_then_append(relation, version):
            delta = delta_since(relation, version)
            if not planted and sys._getframe(1).f_code.co_name == "_extend_pieces":
                planted.append(relation.name)
                _plant_wheel(database, "c")
            return delta

        monkeypatch.setattr(Relation, "delta_since", delta_then_append)
        session.answer(query, database, shards=2)
        monkeypatch.undo()
        assert planted == ["H0"]
        expected = naive_enumerate_answers(query, database)
        assert len(expected) == 3
        assert session.answer(query, database, shards=2).rows == expected

    def test_a_dropped_store_cuts_the_pieces_again(self, monkeypatch):
        # Ids belong to a store: after drop_columnar() the next store may
        # number the hub values differently, so routing an appended row by
        # it would send the row away from its partners' piece.
        query = ConjunctiveQuery([Atom("R", ["h", "x"]), Atom("S", ["h", "y"])])
        database = Database()
        for hub in range(4):
            database.add_fact("R", (hub, f"r{hub}"))
            database.add_fact("S", (hub, f"s{hub}"))
        cut = ShardedDatabase.partition.__func__
        cuts = []

        def counted(cls, *args, **kwargs):
            cuts.append(kwargs["store"])
            return cut(cls, *args, **kwargs)

        monkeypatch.setattr(ShardedDatabase, "partition", classmethod(counted))
        session = EngineSession()
        session.answer(query, database, shards=2)
        database.drop_columnar()
        for hub in reversed(range(4)):
            database.add_fact("T", (hub,))
        database.columnar_view(Atom("T", ["z"]))
        database.add_fact("S", (0, "late"))
        expected = naive_enumerate_answers(query, database)
        assert (0, "r0", "late") in expected
        assert session.answer(query, database, shards=2).rows == expected
        assert len(cuts) == 2
        assert cuts[1] is database.columnar_cache is not cuts[0]

    def test_sharded_readers_racing_an_appender_stay_exact(self):
        query, database = self._wheel()
        session = EngineSession()
        session.answer(query, database, shards=2)
        hubs = [f"w{number}" for number in range(200)]
        answers = {}
        for hub in ["a", "b"] + hubs:
            alone = Database()
            _plant_wheel(alone, hub)
            answers[hub] = naive_enumerate_answers(query, alone)
        progress = {"started": 0, "planted": 0}
        reads: list = []
        errors: list = []
        appended = threading.Event()
        start = threading.Barrier(3)

        def append() -> None:
            try:
                start.wait(timeout=10)
                for number, hub in enumerate(hubs):
                    progress["started"] = number + 1
                    _plant_wheel(database, hub)
                    progress["planted"] = number + 1
                    time.sleep(0)  # let the readers cut in between wheels
            except Exception as exc:  # pragma: no cover - reported below
                errors.append(exc)
            finally:
                appended.set()

        def read() -> None:
            try:
                start.wait(timeout=10)
                while not appended.is_set():
                    before = progress["planted"]
                    rows = session.answer(query, database, shards=2).rows
                    reads.append((before, rows, progress["started"]))
            except Exception as exc:  # pragma: no cover - reported below
                errors.append(exc)

        threads = [threading.Thread(target=append)] + [
            threading.Thread(target=read) for _ in range(2)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        # Every racing read holds each wheel planted before it began and
        # none whose planting started after it ended (a wheel planted
        # during the read may or may not show).
        for before, rows, after in reads:
            held = ["a", "b"] + hubs[:before]
            possible = set().union(*(answers[hub] for hub in held + hubs[before:after]))
            assert set().union(*(answers[hub] for hub in held)) <= rows <= possible
        expected = naive_enumerate_answers(query, database)
        assert len(expected) == 202
        assert session.answer(query, database, shards=2).rows == expected
