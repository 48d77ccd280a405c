"""Unit tests for the columnar relational kernel: the interner, the
array-backed operations against set comprehensions over the decoded rows,
the per-database view cache (cardinality-fingerprint invalidation, pickling
contract), and the decomposition-guided columnar evaluators against the
naive reference.
"""

import pickle
import random
import sys
import threading
import time

import pytest

from repro.cq import columnar as kernel
from repro.cq import generators as cqgen
from repro.cq.columnar import (
    _VECTOR_MIN_ROWS,
    ColumnarRelation,
    ColumnarStore,
    ValueInterner,
    build_columnar_bag_tree,
    columnar_boolean_answer,
    columnar_count_answers,
    columnar_count_join_tree,
    columnar_enumerate_answers,
)
from repro.cq.database import Database, Relation
from repro.cq.homomorphism import naive_count_answers, naive_enumerate_answers
from repro.cq.query import Atom, ConjunctiveQuery, Constant
from repro.cq.relational import NamedRelation
from repro.cq.yannakakis import JoinTree, yannakakis_full
from repro.engine.session import EngineSession


def named(columns, rows):
    return NamedRelation(tuple(columns), set(map(tuple, rows)))


def columnar(columns, rows, interner=None):
    return ColumnarRelation.from_named(
        named(columns, rows), interner or ValueInterner()
    )


def _key(relation, row, columns) -> tuple:
    return tuple(row[relation.column_index(c)] for c in columns)


def join(left, right) -> NamedRelation:
    """``left ⋈ right`` over named rows, by a grouping on the shared key."""
    shared = [c for c in left.columns if c in right.columns]
    extra = tuple(c for c in right.columns if c not in left.columns)
    grouped: dict = {}
    for row in right:
        grouped.setdefault(_key(right, row, shared), []).append(
            _key(right, row, extra)
        )
    return NamedRelation(left.columns + extra, {
        row + tail for row in left for tail in grouped.get(_key(left, row, shared), ())
    })


def semijoin(left, right) -> NamedRelation:
    """``left ⋉ right``: the rows of ``left`` whose shared key ``right`` holds."""
    shared = [c for c in left.columns if c in right.columns]
    keys = {_key(right, row, shared) for row in right}
    return NamedRelation(
        left.columns, {row for row in left if _key(left, row, shared) in keys}
    )


class TestValueInterner:
    def test_ids_are_dense_and_stable(self):
        interner = ValueInterner()
        first = interner.intern("a")
        second = interner.intern("b")
        assert (first, second) == (0, 1)
        assert interner.intern("a") == first
        assert len(interner) == 2
        assert interner.values[first] == "a"

    def test_id_of_unseen_value(self):
        interner = ValueInterner()
        assert interner.id_of("never") is None
        interner.intern("seen")
        assert interner.id_of("seen") == 0

    def test_python_equality_classes_share_one_id(self):
        # 1 == True == 1.0: Python sets conflate them, so must ids.
        interner = ValueInterner()
        assert interner.intern(1) == interner.intern(True) == interner.intern(1.0)


class TestRoundTrip:
    def test_to_named_inverts_from_named(self):
        relation = named("xy", [(1, 2), (3, 4), (1, 4)])
        assert ColumnarRelation.from_named(relation, ValueInterner()).to_named() == relation

    def test_empty_and_zero_column_units(self):
        interner = ValueInterner()
        assert columnar("x", [], interner).to_named() == named("x", [])
        unit = NamedRelation((), {()})
        zero = NamedRelation((), set())
        assert ColumnarRelation.from_named(unit, interner).to_named() == unit
        assert ColumnarRelation.from_named(zero, interner).to_named() == zero
        assert len(ColumnarRelation.from_named(unit, interner)) == 1
        assert not ColumnarRelation.from_named(zero, interner)

    def test_decode_rows_matches_source(self):
        rows = {(1, "a"), (2, "b"), (1, "b")}
        relation = columnar("xy", rows)
        assert relation.decode_rows() == rows
        assert len(relation) == 3


class TestOperationsAgreeWithSetComprehensions:
    def setup_method(self):
        self.interner = ValueInterner()
        self.left_named = named("xy", [(1, 2), (2, 3), (3, 3), (4, 1)])
        self.right_named = named("yz", [(2, 9), (3, 8), (3, 7), (5, 1)])
        self.left = ColumnarRelation.from_named(self.left_named, self.interner)
        self.right = ColumnarRelation.from_named(self.right_named, self.interner)

    def test_natural_join(self):
        joined = self.left.natural_join(self.right)
        assert joined.to_named() == join(self.left_named, self.right_named)
        assert joined.columns == ("x", "y", "z")

    def test_join_without_shared_columns_is_cross_product(self):
        other = columnar("w", [(10,), (11,)], self.interner)
        joined = self.left.natural_join(other)
        assert joined.to_named() == named(
            "xyw", [row + (w,) for row in self.left_named for w in (10, 11)]
        )
        assert len(joined) == len(self.left) * 2

    def test_join_requires_shared_interner(self):
        stranger = columnar("yz", [(2, 9)])
        with pytest.raises(ValueError, match="interner"):
            self.left.natural_join(stranger)
        with pytest.raises(ValueError, match="interner"):
            self.left.semijoin(stranger)

    def test_semijoin(self):
        filtered = self.left.semijoin(self.right)
        assert filtered.to_named() == named("xy", [(1, 2), (2, 3), (3, 3)])

    def test_semijoin_without_shared_columns(self):
        assert len(self.left.semijoin(columnar("q", [], self.interner))) == 0
        nonempty = columnar("q", [(1,)], self.interner)
        assert self.left.semijoin(nonempty) is self.left

    def test_semijoin_is_zero_copy_when_nothing_filtered(self):
        superset = columnar("y", [(1,), (2,), (3,)], self.interner)
        assert self.left.semijoin(superset) is self.left

    def test_project_with_dedup(self):
        assert self.left.project(("y",)).to_named() == named("y", [(1,), (2,), (3,)])
        assert self.left.project(("y", "x")).to_named() == named(
            "yx", [(y, x) for x, y in self.left_named]
        )

    def test_project_to_zero_columns_collapses(self):
        assert self.left.project(()).to_named() == NamedRelation((), {()})
        empty = columnar("x", [], self.interner)
        assert empty.project(()).to_named() == NamedRelation((), set())

    def test_project_identity_is_zero_copy(self):
        assert self.left.project(("x", "y")) is self.left

    def test_project_validates_columns(self):
        with pytest.raises(ValueError):
            self.left.project(("x", "x"))
        with pytest.raises(ValueError):
            self.left.project(("nope",))

    def test_multi_column_join_keys(self):
        # Two shared columns: the packed-int path, where base correctness shows.
        left = columnar("xyz", [(1, 2, 3), (1, 2, 4), (2, 2, 5)], self.interner)
        right = columnar("xyw", [(1, 2, 7), (2, 1, 8)], self.interner)
        expected = named("xyzw", [(1, 2, 3, 7), (1, 2, 4, 7)])
        assert left.natural_join(right).to_named() == expected

    def test_packed_keys_refresh_when_dictionary_grows(self):
        left = columnar("xy", [(1, 2)], self.interner)
        keys_before = left._keys(("x", "y"), len(self.interner))
        # Growing the dictionary changes the pack base: a fresh key vector
        # must be computed, not the memo for the old base.
        self.interner.intern("brand new value")
        keys_after = left._keys(("x", "y"), len(self.interner))
        assert keys_before != keys_after or len(self.interner) == 0


class TestColumnarStore:
    def atom_db(self):
        database = Database()
        for row in [(1, 2), (2, 3), (3, 3), (2, 2)]:
            database.add_fact("R", row)
        return database

    def test_view_matches_from_atom(self):
        from repro.cq.relational import from_atom

        database = self.atom_db()
        atom = Atom("R", ["x", "y"])
        view = database.columnar_view(atom)
        assert view.to_named() == from_atom(atom, database)

    def test_view_handles_constants_and_repeats(self):
        from repro.cq.relational import from_atom

        database = self.atom_db()
        for atom in [
            Atom("R", [Constant(2), "y"]),
            Atom("R", ["x", Constant(3)]),
            Atom("R", ["x", "x"]),
            Atom("R", [Constant(1), Constant(2)]),
            Atom("R", [Constant(7), Constant(7)]),
        ]:
            assert database.columnar_view(atom).to_named() == from_atom(
                atom, database
            ), atom

    def test_views_are_memoized_and_extended_on_growth(self):
        database = self.atom_db()
        atom = Atom("R", ["x", "y"])
        first = database.columnar_view(atom)
        assert database.columnar_view(atom) is first
        info = database.columnar_cache.info()
        assert info["hits"] == 1 and info["misses"] == 1
        # Growth through the versioned API advances the resident view to a
        # new snapshot over the id table; the one already handed out keeps
        # its rows.
        database.add_fact("R", (9, 9))
        second = database.columnar_view(atom)
        assert second is not first
        assert len(second) == 5 and len(first) == 4
        assert (9, 9) in second.decode_rows()
        assert (9, 9) not in first.decode_rows()
        assert database.columnar_cache.extensions == 1

    def test_one_interner_per_database(self):
        database = self.atom_db()
        database.add_fact("S", (3, 4))
        view_r = database.columnar_view(Atom("R", ["x", "y"]))
        view_s = database.columnar_view(Atom("S", ["y", "z"]))
        assert view_r.interner is view_s.interner
        assert view_r.interner is database.columnar_cache.interner

    def test_store_info_reports_dictionary_size(self):
        database = self.atom_db()
        database.columnar_view(Atom("R", ["x", "y"]))
        info = database.columnar_cache.info()
        assert info["dictionary_size"] == 3  # values {1, 2, 3}
        assert info["size"] == 1

    def test_pickling_drops_the_store(self):
        database = self.atom_db()
        database.columnar_view(Atom("R", ["x", "y"]))
        assert database.columnar_cache is not None
        clone = pickle.loads(pickle.dumps(database))
        assert clone.columnar_cache is None
        assert clone == database
        # And the original is untouched.
        assert database.columnar_cache is not None

    def test_drop_columnar(self):
        database = self.atom_db()
        database.columnar_view(Atom("R", ["x", "y"]))
        database.drop_columnar()
        assert database.columnar_cache is None

    def test_view_cache_is_bounded(self, monkeypatch):
        monkeypatch.setattr(kernel, "VIEW_CACHE_SIZE", 2)
        store = ColumnarStore()
        relation = Relation("R", 1, [(1,)])
        for name in "abc":
            store.view(Atom("R", [name]), relation)
        assert store.views.info()["size"] == 2


class TestDatabaseWire:
    def mixed_db(self):
        database = Database()
        for row in [(1, "a"), (2, "b"), (3, "a"), (1, "b")]:
            database.add_fact("R", row)
        for row in [("a", "b"), ("b", "b")]:
            database.add_fact("S", row)
        database.add_fact("U", ())  # arity-0 unit relation
        database.add_relation(Relation("Empty", 2))
        return database

    def test_round_trip_is_identity(self):
        database = self.mixed_db()
        back = Database.from_wire(database.to_wire())
        assert back == database
        assert Database.from_wire(Database().to_wire()) == Database()

    def test_round_trip_survives_pickle(self):
        database = self.mixed_db()
        blob = pickle.dumps(database.to_wire(), protocol=pickle.HIGHEST_PROTOCOL)
        assert Database.from_wire(pickle.loads(blob)) == database

    def test_decode_attaches_a_warm_store(self):
        database = self.mixed_db()
        wire = database.to_wire()
        back = Database.from_wire(wire)
        store = back.columnar_cache
        assert store is not None
        assert len(store.interner) == len(wire.dictionary)
        # The shipped id columns become the relation's id table.
        table = store._tables["R"]
        assert table.length == 4
        assert [buffer[:4].tolist() for buffer in table.buffers] == [
            list(column) for column in wire.relations["R"][1]
        ]
        view = back.columnar_view(Atom("R", ["x", "y"]))
        assert view.to_named() == NamedRelation(
            ("x", "y"), set(database.relation("R").tuples)
        )

    def test_decoded_views_agree_with_fresh_views(self):
        database = self.mixed_db()
        back = Database.from_wire(database.to_wire())
        for atom in [
            Atom("R", ["x", "y"]),
            Atom("R", [Constant(1), "y"]),
            Atom("R", [Constant(99), "y"]),  # constant outside the domain
            Atom("S", ["x", "x"]),
            Atom("S", [Constant("a"), Constant("b")]),
            Atom("Empty", ["x", "y"]),
        ]:
            assert (
                back.columnar_view(atom).to_named()
                == database.columnar_view(atom).to_named()
            ), atom

    def test_growth_after_decode_extends_the_based_view(self):
        database = self.mixed_db()
        atom = Atom("R", ["x", "y"])
        wire = database.to_wire()
        back = Database.from_wire(wire)
        before = back.columnar_view(atom)
        back.add_fact("R", (7, "fresh"))
        after = back.columnar_view(atom)
        # The appended row is interned onto the shipped id table; the
        # snapshot taken before keeps its rows, the wire stays unmutated.
        assert after is not before
        assert (7, "fresh") in after.decode_rows()
        assert len(before) == 4 and (7, "fresh") not in before.decode_rows()
        assert back.columnar_cache._tables["R"].length == 5
        assert len(wire.relations["R"][1][0]) == 4

    def test_typecode_narrows_with_the_dictionary(self):
        small = Database()
        small.add_fact("R", (1, 2))
        assert small.to_wire().relations["R"][1][0].typecode == "B"
        wide = Database()
        for value in range(300):
            wide.add_fact("R", (value,))
        assert wide.to_wire().relations["R"][1][0].typecode == "H"

    def test_wire_pickle_is_smaller_than_database_pickle(self):
        query = cqgen.hub_cycle_query(4)
        database = cqgen.random_database(query, 40, 3000, seed=11)
        wire_bytes = len(
            pickle.dumps(database.to_wire(), protocol=pickle.HIGHEST_PROTOCOL)
        )
        plain_bytes = len(
            pickle.dumps(database, protocol=pickle.HIGHEST_PROTOCOL)
        )
        assert wire_bytes < plain_bytes


def _tree_for(query, database):
    from repro.engine import EngineSession

    plan = EngineSession().plan(query)
    return build_columnar_bag_tree(query, database, plan.decomposition)


class TestColumnarEvaluation:
    @pytest.mark.parametrize("length", [3, 4, 6])
    def test_cycle_queries_match_naive(self, length):
        query = cqgen.cycle_query(length)
        database = cqgen.random_database(query, 8, 60, seed=length)
        tree = _tree_for(query, database)
        from repro.engine import EngineSession

        decomposition = EngineSession().plan(query).decomposition
        assert columnar_boolean_answer(query, database, decomposition) == bool(
            naive_enumerate_answers(query, database)
        )
        assert columnar_enumerate_answers(
            query, database, decomposition
        ) == naive_enumerate_answers(query, database)
        assert columnar_count_answers(
            query, database, decomposition
        ) == naive_count_answers(query, database)
        assert columnar_count_join_tree(tree) == naive_count_answers(query, database)

    def test_projected_query_matches_naive(self):
        query = cqgen.cycle_query(4).project(["x0", "x2"])
        database = cqgen.random_database(query, 7, 50, seed=11)
        from repro.engine import EngineSession

        decomposition = EngineSession().plan(query).decomposition
        assert columnar_enumerate_answers(
            query, database, decomposition
        ) == naive_enumerate_answers(query, database)
        with pytest.raises(ValueError):
            columnar_count_answers(query, database, decomposition)

    def test_acyclic_chain_matches_naive(self):
        query = cqgen.chain_query(5)
        database = cqgen.random_database(query, 6, 40, seed=23)
        from repro.engine import EngineSession

        decomposition = EngineSession().plan(query).decomposition
        assert columnar_enumerate_answers(
            query, database, decomposition
        ) == naive_enumerate_answers(query, database)

    def test_constants_and_repeated_variables(self):
        database = Database()
        for row in [(1, 2), (2, 2), (2, 3), (3, 1)]:
            database.add_fact("E", row)
        query = ConjunctiveQuery(
            (Atom("E", ["x", "y"]), Atom("E", ["y", "y"]))
        )
        from repro.engine import EngineSession

        decomposition = EngineSession().plan(query).decomposition
        assert columnar_enumerate_answers(
            query, database, decomposition
        ) == naive_enumerate_answers(query, database)

    def test_unsatisfiable_query(self):
        database = Database()
        database.add_fact("E", (1, 2))
        database.add_fact("F", (3, 4))
        query = ConjunctiveQuery((Atom("E", ["x", "y"]), Atom("F", ["y", "z"])))
        from repro.engine import EngineSession

        decomposition = EngineSession().plan(query).decomposition
        assert not columnar_boolean_answer(query, database, decomposition)
        assert columnar_enumerate_answers(query, database, decomposition) == set()
        assert columnar_count_answers(query, database, decomposition) == 0

    def test_missing_decomposition_raises(self):
        query = cqgen.chain_query(2)
        database = cqgen.random_database(query, 4, 10, seed=1)
        with pytest.raises(ValueError):
            columnar_boolean_answer(query, database, None)

    def test_full_tree_output_is_columnar_and_decodes_once(self):
        query = cqgen.chain_query(3)
        database = cqgen.random_database(query, 5, 30, seed=9)
        tree = _tree_for(query, database)
        result = yannakakis_full(tree, output_columns=query.free_variables)
        # The generic tree walk returns a *columnar* relation: ids only
        # decode at the boundary.
        assert isinstance(result, ColumnarRelation)
        assert result.decode_rows() == naive_enumerate_answers(query, database)


class TestConcurrentViews:
    """Readers racing on one database's columnar store (the service answers
    from a thread pool): a stale view is extended exactly once, appends
    landing mid-read are folded in by the next read, and concurrent first
    callers share one store.  A 1 µs switch interval makes the races
    likely; every thread is joined with a timeout."""

    READERS = 4

    def _race(self, target, *args):
        barrier = threading.Barrier(len(args) or self.READERS)
        threads = [
            threading.Thread(target=target, args=(barrier, arg))
            for arg in (args or range(self.READERS))
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)

    @pytest.fixture(autouse=True)
    def fast_switching(self):
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            yield
        finally:
            sys.setswitchinterval(interval)

    @staticmethod
    def _assert_view_matches(database, atom):
        view = database.columnar_view(atom)
        assert len(view) == len(database.relation(atom.relation))
        assert len(set(view.id_rows())) == len(view)
        assert view.decode_rows() == database.relation(atom.relation).tuples

    def test_stale_view_extends_once_under_concurrent_readers(self):
        atom = Atom("R", ["x", "y"])
        for trial in range(20):
            database = Database()
            for i in range(50):
                database.add_fact("R", (i, i + 1))
            database.columnar_view(atom)
            for i in range(600):
                database.add_fact("R", (1000 + i, trial))

            def read(barrier, _index):
                barrier.wait(timeout=10)
                database.columnar_view(atom)

            self._race(read)
            self._assert_view_matches(database, atom)

    def test_appends_racing_readers_are_folded_in_once(self):
        atom = Atom("R", ["x", "y"])
        for trial in range(10):
            database = Database()
            database.add_fact("R", (0, 0))
            database.columnar_view(atom)

            def work(barrier, role):
                barrier.wait(timeout=10)
                if role == "append":
                    for i in range(1, 400):
                        database.add_fact("R", (i, trial))
                else:
                    for _ in range(200):
                        database.columnar_view(atom)

            self._race(work, "append", "read", "read", "read")
            self._assert_view_matches(database, atom)

    def test_views_built_while_appending_hold_each_row_once(self):
        # A first build records the relation's version, then scans.  Rows
        # appended in between belong to the next extension; scanning the
        # live tuple set built them in early, and the extension added them
        # again (the kernel assumes distinct rows, so counts went wrong).
        # Four views per trial, keyed apart by their variable names.
        atoms = [Atom("E", (f"x{k}", f"y{k}")) for k in range(4)]
        rows = 5000
        for trial in range(30):
            database = Database()
            for i in range(rows):
                database.add_fact("E", (i, i + 1))

            def work(barrier, atom):
                barrier.wait(timeout=10)
                if atom is None:
                    for i in range(rows, rows + 3000):
                        database.add_fact("E", (i, trial))
                else:
                    database.columnar_view(atom)

            self._race(work, None, *atoms)
            for atom in atoms:
                self._assert_view_matches(database, atom)

    def test_vectorised_readers_racing_appends_keep_the_view_exact(self):
        # Vectorised operators copy a resident view's array('q') column
        # while appends extend it in place.  The copy must not export the
        # column's buffer (``extend`` would raise BufferError halfway
        # through an append, and the next read would fold the rows in
        # again), and a copy of the pre-append rows must not stay memoized.
        # One column, so every reader's gather matches the keys it probed.
        atom = Atom("U", ["x"])
        rows = 16 * _VECTOR_MIN_ROWS
        for trial in range(5):
            database = Database()
            for i in range(rows):
                database.add_fact("U", (i,))
            view = database.columnar_view(atom)
            interner = database.columnar_store().interner
            evens = columnar(("x",), [(i,) for i in range(0, rows, 2)], interner)
            errors = []

            def work(barrier, role):
                barrier.wait(timeout=10)
                try:
                    if role == "append":
                        for i in range(rows, rows + 300):
                            database.add_fact("U", (i,))
                            database.columnar_view(atom)
                    else:
                        for _ in range(60):
                            view.semijoin(evens)
                except Exception as error:  # surfaced by the assert below
                    errors.append(error)

            self._race(work, "append", "read", "read")
            assert errors == []
            self._assert_view_matches(database, atom)
            everything = columnar(("x",), database.relation("U").tuples, interner)
            assert view.semijoin(everything) is view
            assert len(view.natural_join(everything)) == len(view)

    def test_concurrent_first_callers_share_one_store(self, monkeypatch):
        # A slow store construction widens the check-then-create window.
        build = ColumnarStore.__init__

        def slow_build(store, *args, **kwargs):
            time.sleep(0.002)
            build(store, *args, **kwargs)

        monkeypatch.setattr(ColumnarStore, "__init__", slow_build)
        for _ in range(5):
            database = Database()
            stores = []

            def create(barrier, _index):
                barrier.wait(timeout=10)
                stores.append(database.columnar_store())

            self._race(create)
            assert len({id(store) for store in stores}) == 1
            assert stores[0] is database.columnar_store()


class _GrowingInterner(ValueInterner):
    """Replays another thread interning values right after every read of
    the dictionary size: each ``len()`` answers, then interns seven fresh
    values.  An operator that reads the size once per side packs its two
    sides' keys under different bases."""

    __slots__ = ()

    def __len__(self) -> int:
        size = len(self.values)
        for _ in range(7):
            self.intern(("fresh", len(self.values)))
        return size


def _three_column_pair(rows: int, domain: int, seed: int) -> tuple:
    """``R(a, b, c)`` and ``S(a, b, d)``: ``rows`` distinct rows each over
    ``range(domain)``, sharing the two-column key ``(a, b)``; ``S`` skips
    a third of the key pairs, so a semijoin filters."""
    rng = random.Random(seed)
    cells = [
        (a, b, v) for a in range(domain) for b in range(domain)
        for v in range(domain)
    ]
    left = NamedRelation(("a", "b", "c"), set(rng.sample(cells, rows)))
    right = NamedRelation(
        ("a", "b", "d"),
        {row for row in rng.sample(cells, rows) if (row[0] + row[1]) % 3},
    )
    return left, right


class TestPackBase:
    """Multi-column keys pack as ``k * base + id`` with ``base =
    |dictionary|``.  Each operator reads the base once and hands it to
    both sides; reading it per side mixed two bases whenever another
    thread interned values in between, which lost matches and made false
    ones."""

    @pytest.mark.parametrize(
        "rows, domain, dense_factor",
        [(200, 7, kernel._DENSE_FACTOR), (1500, 12, kernel._DENSE_FACTOR),
         (1500, 12, 0)],
        ids=["dict", "numpy-dense", "numpy-sort"],
    )
    def test_interning_between_the_two_sides_keeps_operators_exact(
        self, rows, domain, dense_factor, monkeypatch
    ):
        monkeypatch.setattr(kernel, "_DENSE_FACTOR", dense_factor)
        left, right = _three_column_pair(rows, domain, seed=rows)
        interner = _GrowingInterner()

        def fresh():
            return (
                ColumnarRelation.from_named(left, interner),
                ColumnarRelation.from_named(right, interner),
            )

        cleft, cright = fresh()
        assert (len(cleft) >= _VECTOR_MIN_ROWS) == (rows >= _VECTOR_MIN_ROWS)
        assert cleft.natural_join(cright).to_named() == join(left, right)
        cleft, cright = fresh()
        assert cright.natural_join(cleft).to_named() == join(right, left)
        cleft, cright = fresh()
        assert cleft.semijoin(cright).to_named() == semijoin(left, right)
        cleft, cright = fresh()
        tree = JoinTree({0: cleft, 1: cright}, {0: None, 1: 0})
        assert columnar_count_join_tree(tree) == len(join(left, right))

    def test_threads_interning_values_leave_running_joins_exact(self):
        """One thread answers ``R(a, b, c), S(a, b, d)`` projected onto
        ``(c, d)`` (a dict-path join on a two-column key) while another
        appends fresh values to ``T`` and answers ``T(t)``, interning them
        into the same dictionary.  About 2 s at a 10 µs switch interval."""
        left, right = _three_column_pair(200, 7, seed=3)
        database = Database()
        for name, relation in (("R", left), ("S", right)):
            for row in relation.rows:
                database.add_fact(name, row)
        query = ConjunctiveQuery(
            [Atom("R", ["a", "b", "c"]), Atom("S", ["a", "b", "d"])]
        ).project(["c", "d"])
        grower = ConjunctiveQuery([Atom("T", ["t"])])
        expected = naive_enumerate_answers(query, database)
        session = EngineSession()
        stop = threading.Event()
        answered: list = []
        wrong: list = []
        errors: list = []

        def read():
            try:
                while not stop.is_set():
                    rows = session.answer(query, database).rows
                    answered.append(len(rows))
                    if rows != expected:
                        wrong.append(len(rows))
            except Exception as error:  # surfaced by the assert below
                errors.append(error)

        def intern():
            try:
                fresh = 0
                while not stop.is_set():
                    database.add_fact("T", (("t", fresh),))
                    fresh += 1
                    session.answer(grower, database)
            except Exception as error:  # surfaced by the assert below
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=read), threading.Thread(target=intern)]
            for thread in threads:
                thread.start()
            time.sleep(2)
            stop.set()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            stop.set()
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert answered
        assert wrong == [], f"{len(wrong)} of {len(answered)} answers wrong"
