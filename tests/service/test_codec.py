"""The service wire format: JSON ⇄ queries/databases/results."""

import pytest

from repro.cq import generators as cqgen
from repro.cq.database import Database
from repro.cq.query import Atom, ConjunctiveQuery, Constant
from repro.engine import EngineSession
from repro.service import (
    CodecError,
    database_from_json,
    database_to_json,
    facts_from_json,
    query_from_json,
    query_to_json,
    result_to_json,
)


class TestTermsAndQueries:
    def test_query_round_trip(self):
        query = ConjunctiveQuery(
            [
                Atom("R", ("x", "y", Constant(7))),
                Atom("S", ("y", "z")),
            ],
            free_variables=("x", "z"),
        )
        wire = query_to_json(query)
        back = query_from_json(wire)
        assert back.free_variables == query.free_variables
        assert [a.relation for a in back.atoms] == ["R", "S"]
        assert back.atoms[0].terms == ("x", "y", Constant(7))
        # Round-tripping the round trip is a fixed point.
        assert query_to_json(back) == wire

    def test_full_query_when_free_omitted(self):
        query = query_from_json(
            {"atoms": [{"relation": "R", "terms": ["x", "y"]}]}
        )
        assert query.free_variables == ("x", "y")

    def test_boolean_query_with_empty_free(self):
        query = query_from_json(
            {"atoms": [{"relation": "R", "terms": ["x"]}], "free": []}
        )
        assert query.free_variables == ()
        assert query.is_boolean()

    @pytest.mark.parametrize(
        "bad",
        [
            "not a dict",
            {},
            {"atoms": []},
            {"atoms": [{"relation": "R"}]},
            {"atoms": [{"relation": "R", "terms": [1]}]},
            {"atoms": [{"relation": "R", "terms": [{"const": [1]}]}]},
            {"atoms": [{"relation": "R", "terms": ["x"]}], "free": ["zz"]},
            {"atoms": [{"relation": "R", "terms": ["x"]}], "free": "x"},
        ],
    )
    def test_malformed_queries_raise_codec_error(self, bad):
        with pytest.raises(CodecError):
            query_from_json(bad)


class TestDatabases:
    def test_database_round_trip(self):
        database = Database()
        database.add_fact("R", (1, "a"))
        database.add_fact("R", (2, "b"))
        database.add_fact("S", (True,))
        wire = database_to_json(database)
        back = database_from_json(wire)
        assert back == database
        assert database_to_json(back) == wire

    @pytest.mark.parametrize(
        "bad",
        [
            ["not", "a", "dict"],
            {"R": "rows"},
            {"R": [[1], [1, 2]]},
            {"R": [[{"nested": 1}]]},
            {"R": [(1,)]},
        ],
    )
    def test_malformed_databases_raise_codec_error(self, bad):
        with pytest.raises(CodecError):
            database_from_json(bad)

    def test_facts_parse_to_row_tuples(self):
        facts = facts_from_json({"R": [[1, "a"], [2, "b"]], "S": [[True]]})
        assert facts == {"R": [(1, "a"), (2, "b")], "S": [(True,)]}

    @pytest.mark.parametrize(
        "rows, message",
        [
            ([(1,)], "rows of 'R' must be lists, got (1,)"),
            ([[1], [1, 2]], "relation 'R' mixes arities 1 and 2"),
            ([[{"nested": 1}]], "relation 'R' values must be JSON scalars, got dict"),
        ],
    )
    def test_row_errors_read_the_same_for_databases_and_facts(self, rows, message):
        for parse in (database_from_json, facts_from_json):
            with pytest.raises(CodecError) as raised:
                parse({"R": rows})
            assert str(raised.value) == message


class TestResults:
    def test_answer_result_shape(self):
        query = cqgen.chain_query(3)
        database = cqgen.random_database(query, 6, 30, seed=1)
        result = EngineSession().answer(query, database)
        wire = result_to_json(result)
        assert wire["task"] == "answer"
        assert wire["strategy"] == result.strategy
        assert set(wire["timings"]) == {
            "planning_seconds", "execution_seconds", "total_seconds",
        }
        assert sorted(map(tuple, wire["rows"]), key=repr) == sorted(
            map(tuple, result.rows), key=repr
        )
        # rows are JSON lists, sorted deterministically
        assert wire["rows"] == sorted(wire["rows"], key=repr)

    def test_sharded_count_result_records_sharding_and_runtime(self):
        query = cqgen.chain_query(3)
        database = cqgen.random_database(query, 6, 40, seed=2)
        result = EngineSession().count(query, database, shards=3)
        wire = result_to_json(result)
        assert wire["value"] == result.count
        assert wire["sharding"]["shards"] == 3
        assert "rows" not in wire
