"""Resident columnar views are immutable snapshots over per-relation id
tables (:class:`repro.cq.columnar.ColumnarStore`).

* **pinned snapshots** — a view handed out by ``Database.columnar_view``
  keeps its length, decoded rows and join results after later appends and
  a fresh ``columnar_view`` call, for an identity pattern, a constant
  pattern whose constant first arrives in an append, a repeated-variable
  pattern and a wire-decoded database;
* **merged sort orders** — after appends of 1, 60 and 600 rows, the sort
  order a snapshot merges from its predecessor's equals a fresh sort, also
  when an older snapshot reads the newer entry, and operators over
  snapshots equal the tuple-set reference on both NumPy branches;
* **a bounded threaded guard** — readers run two-column joins and
  semijoins over resident views, on the dict and NumPy paths, while a
  writer appends; every result equals the tuple-set reference at the
  reader's pinned length.
"""

import random
import sys
import threading
import time

import numpy as np
import pytest

from repro.cq import columnar
from repro.cq.columnar import _VECTOR_MIN_ROWS, ColumnarRelation
from repro.cq.database import Database, Relation
from repro.cq.query import Atom, Constant
from repro.cq.relational import NamedRelation, from_atom

N = 2 * _VECTOR_MIN_ROWS


def _database(rows: int = N, seed: int = 0) -> Database:
    rng = random.Random(seed)
    relation = Relation("E", 2)
    while len(relation) < rows:
        relation.add((rng.randrange(rows // 4), rng.randrange(rows // 4)))
    return Database([relation])


def _probe(database, rows: set) -> ColumnarRelation:
    return ColumnarRelation.from_named(
        NamedRelation(("x", "y"), rows), database.columnar_store().interner
    )


class TestPinnedSnapshots:
    def _assert_pinned(self, database, atom, appended_rows) -> None:
        view = database.columnar_view(atom)
        length = len(view)
        decoded = view.decode_rows()
        expected = from_atom(atom, database)
        assert view.to_named() == expected
        probe = ColumnarRelation.from_named(
            NamedRelation(view.columns, expected.rows), view.interner
        )
        joined = probe.natural_join(view).decode_rows()
        for row in appended_rows:
            database.add_fact(atom.relation, row)
        fresh = database.columnar_view(atom)
        assert fresh is not view
        assert fresh.to_named() == from_atom(atom, database)
        assert len(fresh) > length
        assert len(view) == length
        assert view.decode_rows() == decoded
        assert probe.natural_join(view).decode_rows() == joined
        assert view.semijoin(fresh) is view

    def test_identity_pattern(self):
        database = _database()
        self._assert_pinned(
            database, Atom("E", ["x", "y"]), [(-i, i) for i in range(1, 40)]
        )

    def test_constant_pattern_whose_constant_arrives_in_an_append(self):
        database = _database()
        atom = Atom("E", [Constant("late"), "y"])
        empty = database.columnar_view(atom)
        assert len(empty) == 0
        self._assert_pinned(database, atom, [("late", i) for i in range(3)])
        self._assert_pinned(database, atom, [("late", -i) for i in range(1, 5)])
        assert len(empty) == 0

    def test_repeated_variable_pattern(self):
        database = _database()
        atom = Atom("E", ["x", "x"])
        self._assert_pinned(database, atom, [(-i, -i) for i in range(1, 30)])

    def test_wire_decoded_database(self):
        database = Database.from_wire(_database().to_wire())
        for atom, rows in [
            (Atom("E", ["x", "y"]), [("w", i) for i in range(5)]),
            (Atom("E", [Constant("w"), "y"]), [("w", -i) for i in range(1, 4)]),
        ]:
            self._assert_pinned(database, atom, rows)


def _fresh_order(keys: np.ndarray) -> tuple:
    order = np.argsort(keys, kind="stable")
    return order, keys[order]


@pytest.mark.parametrize("dense_factor", [columnar._DENSE_FACTOR, 0])
def test_merged_orders_equal_a_fresh_sort(monkeypatch, dense_factor):
    monkeypatch.setattr(columnar, "_DENSE_FACTOR", dense_factor)
    database = _database(seed=1)
    rng = random.Random(2)
    atom = Atom("E", ["x", "y"])
    views = [database.columnar_view(atom)]
    base = 0
    views[0]._sorted_keys(("y",), base)
    fresh_value = 0
    for added in (1, 60, 600):
        for _ in range(added):
            fresh_value -= 1
            database.add_fact("E", (fresh_value, rng.randrange(N // 4)))
        view = database.columnar_view(atom)
        entry = view._order_cache[((1,), 0)]
        assert entry.rows == len(views[-1])
        order, keys = view._sorted_keys(("y",), base)
        assert view._order_cache[((1,), 0)].rows == len(view)
        assert keys.tolist() == sorted(view._column_array(1).tolist())
        assert sorted(order.tolist()) == list(range(len(view)))
        assert (view._column_array(1)[order] == keys).all()
        views.append(view)
    # Older snapshots read the newest entry without its later rows.
    for older in views[:-1]:
        order, keys = older._sorted_keys(("y",), base)
        fresh_order, fresh_keys = _fresh_order(older._column_array(1))
        assert keys.tolist() == fresh_keys.tolist()
        assert sorted(order.tolist()) == list(range(len(older)))
    # Operators over every snapshot equal the tuple-set reference.
    rows = database.relation("E").rows_at
    small = _probe(database, {(x, y) for x, y in rows(60)[::3]})
    large = _probe(database, set(rows(len(views[-1]))[::2]))
    for view in views:
        reference = NamedRelation(("x", "y"), set(rows(len(view))))
        for other, named in ((small, small.to_named()), (large, large.to_named())):
            assert view.natural_join(other).to_named() == reference.natural_join(named)
            assert other.natural_join(view).to_named() == named.natural_join(reference)
            assert view.semijoin(other).to_named() == reference.semijoin(named)
            assert other.semijoin(view).to_named() == named.semijoin(reference)
        assert view.project(("y",)).to_named() == reference.project(("y",))


@pytest.mark.parametrize("dense_factor", [columnar._DENSE_FACTOR, 0])
def test_readers_racing_an_appender_stay_exact_at_their_pinned_length(
    monkeypatch, dense_factor
):
    monkeypatch.setattr(columnar, "_DENSE_FACTOR", dense_factor)
    database = _database(seed=3)
    relation = database.relation("E")
    atom = Atom("E", ["x", "y"])
    database.columnar_view(atom)
    stored = relation.rows_at(len(relation))
    # Two-column probes below and above the NumPy threshold (the dict
    # path's shared buckets and key sets, the NumPy path's packed keys),
    # and a one-column probe reading the view's merged sort order.
    probes = [
        _probe(database, set(stored[:40])),
        _probe(database, set(stored[: 3 * _VECTOR_MIN_ROWS // 2])),
        ColumnarRelation.from_named(
            NamedRelation(("y",), {(y,) for _, y in stored[:_VECTOR_MIN_ROWS]}),
            database.columnar_store().interner,
        ),
    ]
    named = [probe.to_named() for probe in probes]
    stop = threading.Event()
    errors: list = []
    reads = [0]

    def append() -> None:
        rng = random.Random(4)
        try:
            while not stop.is_set():
                for _ in range(rng.choice((1, 7, 60))):
                    # Fresh values grow the interner, so packed bases move.
                    value = rng.randrange(3 * N)
                    database.add_fact("E", (value, rng.randrange(N // 4)))
                time.sleep(0)
        except Exception as error:  # pragma: no cover - reported below
            errors.append(error)

    def read() -> None:
        try:
            while not stop.is_set():
                view = database.columnar_view(atom)
                reference = NamedRelation(
                    ("x", "y"), set(relation.rows_at(len(view)))
                )
                for probe, probe_named in zip(probes, named):
                    results = [
                        (probe.natural_join(view), probe_named.natural_join(reference)),
                        (view.natural_join(probe), reference.natural_join(probe_named)),
                        (probe.semijoin(view), probe_named.semijoin(reference)),
                        (view.semijoin(probe), reference.semijoin(probe_named)),
                    ]
                    for got, expected in results:
                        if got.to_named() != expected:
                            errors.append((len(view), got, expected))
                reads[0] += 1
        except Exception as error:  # pragma: no cover - reported below
            errors.append(error)

    threads = [threading.Thread(target=append)] + [
        threading.Thread(target=read) for _ in range(2)
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        time.sleep(1.0)
    finally:
        stop.set()
        for thread in threads:
            thread.join(timeout=60)
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert reads[0] > 0
