"""Property tests for the shipment contract of the process runtime.

A shipment is one :class:`~repro.cq.columnar.DatabaseDelta`: the rows each
relation appended after a base version, plus the whole base map, so the
delta from ``{}`` is a full copy.  Over random databases (arity-0, empty
and mixed-type relations), random per-relation cut versions and relations
created after the cut:

* **catch-up** — ``encode_delta(db, since)`` applied to a copy at
  ``since`` makes the copy equal ``db``, version for version, and the
  copy's atom views equal a fresh database's;
* **refusal** — applied to a copy *not* at ``since``, it raises
  :class:`~repro.cq.columnar.DeltaMismatchError` and leaves the copy, its
  id tables included, unchanged.

A spy test pins the cost: ``apply`` interns each dictionary value once,
and the receiver's next views intern nothing.
"""

import pickle

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.cq.columnar import DeltaMismatchError, ValueInterner, encode_delta
from repro.cq.database import Database, Relation
from repro.cq.query import Atom, Constant

# Equal values across types (0 == False, 1 == True == 1.0) exercise
# interning across Python equality classes.
VALUES = st.sampled_from(
    [0, 1, 2, 3, True, False, 1.0, 2.5, "a", "b", "zz", None, (1, 2), frozenset({1})]
)


@st.composite
def cut_databases(draw):
    """``(database, since)``: a random database and a cut, mapping each
    relation that existed at the cut to its version then.  Relations
    missing from ``since`` were created after the cut."""
    database = Database()
    since = {}
    for index in range(draw(st.integers(0, 4))):
        arity = draw(st.integers(0, 3))
        rows = draw(st.lists(st.tuples(*[VALUES] * arity), max_size=12))
        relation = Relation(f"R{index}", arity, rows)
        database.add_relation(relation)
        if draw(st.booleans()):
            since[relation.name] = draw(st.integers(0, relation.version))
    return database, since


def _atoms(relation):
    """The identity pattern of ``relation``, plus a repeated-variable and a
    constant pattern where its arity allows them."""
    variables = [f"x{i}" for i in range(relation.arity)]
    atoms = [Atom(relation.name, variables)]
    if relation.arity >= 2:
        atoms.append(Atom(relation.name, ["x0", "x0", *variables[2:]]))
    if relation.arity >= 1:
        atoms.append(Atom(relation.name, [Constant(1), *variables[1:]]))
    return atoms


def _copy(database, versions, viewed, draw):
    """A copy holding each relation in ``versions`` at that version.  With
    ``viewed``, each relation's atom views are taken at a random earlier
    version, so its id table exists and may lag the log."""
    copy = Database()
    for name, version in versions.items():
        relation = database.relation(name)
        rows = relation.rows_at(version)
        stored = Relation(name, relation.arity)
        copy.add_relation(stored)
        seen = draw(st.integers(0, version)) if viewed else version
        for row in rows[:seen]:
            stored.add(row)
        if viewed:
            for atom in _atoms(relation):
                copy.columnar_view(atom)
        for row in rows[seen:]:
            stored.add(row)
    return copy


def _state(database):
    store = database.columnar_cache
    tables = None
    if store is not None:
        tables = {name: table.length for name, table in store._tables.items()}
    return (
        {name: list(relation._log) for name, relation in database.relations.items()},
        tables,
    )


@settings(max_examples=200, deadline=None)
@given(cut=cut_databases(), viewed=st.booleans(), data=st.data())
def test_a_delta_brings_a_copy_at_its_base_up_to_date(cut, viewed, data):
    database, since = cut
    copy = _copy(database, since, viewed, data.draw)
    delta = pickle.loads(pickle.dumps(encode_delta(database, since)))
    assert delta.apply(copy) is copy
    assert copy == database
    versions = {n: r.version for n, r in database.relations.items()}
    assert {n: r.version for n, r in copy.relations.items()} == versions
    assert delta.versions() == versions
    fresh = database.copy()
    for relation in database.relations.values():
        for atom in _atoms(relation):
            shipped = copy.columnar_view(atom)
            assert shipped.columns == fresh.columnar_view(atom).columns
            assert shipped.decode_rows() == fresh.columnar_view(atom).decode_rows()


@settings(max_examples=200, deadline=None)
@given(cut=cut_databases(), viewed=st.booleans(), data=st.data())
def test_a_delta_refuses_a_copy_off_its_base(cut, viewed, data):
    database, since = cut
    versions = {}
    for name, relation in database.relations.items():
        if data.draw(st.booleans()):
            versions[name] = data.draw(st.integers(0, relation.version))
    # A relation the copy lacks is at version 0.
    assume(any(
        versions.get(name, 0) != since.get(name, 0) for name in database.relations
    ))
    copy = _copy(database, versions, viewed, data.draw)
    before = _state(copy)
    with pytest.raises(DeltaMismatchError):
        encode_delta(database, since).apply(copy)
    assert _state(copy) == before


def test_an_empty_database_is_not_at_a_base_it_lacks():
    database = Database()
    database.add_fact("R", (1, 2))
    since = {"R": 1}
    database.add_fact("S", ("new",))
    delta = encode_delta(database, since)
    # R did not grow, so the delta's rows are the new relation's alone.
    assert set(delta.relations) == {"S"}
    receiver = Database()
    with pytest.raises(DeltaMismatchError, match="'R' is at version 0"):
        delta.apply(receiver)
    assert receiver == Database()
    assert receiver.columnar_cache is None


def test_a_database_with_no_relations_round_trips():
    shipped = Database.from_wire(Database().to_wire())
    assert shipped == Database()


def test_apply_interns_each_dictionary_value_once(monkeypatch):
    # A resident copy with warm views receives 600 new edges over 1,000
    # distinct values: apply interns the delta's dictionary once, and the
    # copy's next views read the shipped id columns instead of interning.
    source = Database()
    for i in range(50):
        source.add_fact("E", (i, i + 1))
    copy = Database.from_wire(source.to_wire())
    atoms = [Atom("E", ["x", "y"]), Atom("E", ["x", "x"]), Atom("E", [Constant(3), "y"])]
    for atom in atoms:
        copy.columnar_view(atom)
    since = {name: relation.version for name, relation in source.relations.items()}
    for i in range(600):
        source.add_fact("E", (1000 + i, 2000 + i % 400))
    delta = encode_delta(source, since)
    assert len(delta.dictionary) == 1000

    calls = []
    intern = ValueInterner.intern

    def counted(self, value):
        calls.append(value)
        return intern(self, value)

    monkeypatch.setattr(ValueInterner, "intern", counted)
    delta.apply(copy)
    assert len(calls) == len(delta.dictionary)
    calls.clear()
    shipped = [copy.columnar_view(atom) for atom in atoms]
    assert calls == []
    assert copy == source
    for atom, view in zip(atoms, shipped):
        assert view.decode_rows() == source.columnar_view(atom).decode_rows()


def test_a_receiver_with_other_rows_keeps_its_table_on_its_log():
    # Same version, different rows: the shipped row is one the receiver
    # already holds, so its relation drops it, and its id table follows the
    # log rather than the shipment.
    sender = Database()
    sender.add_fact("R", (1,))
    since = {"R": 1}
    sender.add_fact("R", (2,))
    receiver = Database()
    receiver.add_fact("R", (2,))
    atom = Atom("R", ["x"])
    receiver.columnar_view(atom)
    encode_delta(sender, since).apply(receiver)
    assert receiver.relation("R").version == 1
    receiver.add_fact("R", (3,))
    assert receiver.columnar_view(atom).decode_rows() == {(2,), (3,)}


def test_a_shipped_arity_that_differs_is_refused_before_any_append():
    # A ships first and is new to the receiver; B is held at another arity.
    # The arity check runs before any relation appends, so A is not made.
    sender = Database()
    sender.add_fact("A", (1,))
    sender.add_fact("B", (1, 2))
    receiver = Database()
    receiver.add_relation(Relation("B", 3))
    with pytest.raises(ValueError, match="arity"):
        encode_delta(sender, {"B": 0}).apply(receiver)
    assert not receiver.has_relation("A")
    assert receiver.relation("B").version == 0
