"""Databases as sets of ground atoms, organised into named relations.

Following the paper, a database is a finite set of ground relational atoms in
the standard "succinct" representation — lists of tuples per relation symbol —
as opposed to the truth-table encoding discussed in the related-work section.
``Database.size()`` is the ``||D||`` measure used in the Theorem 3.4 size
bounds: the total number of cells (tuples times arity) plus the number of
relations.
"""

from __future__ import annotations

import decimal
import numbers
import threading
import zlib
from collections.abc import Hashable, Iterable, Mapping

Value = Hashable

#: Guards the lazy creation of a database's columnar store (rare: once per
#: database), so concurrent first callers cannot each install a store.
_COLUMNAR_STORE_LOCK = threading.Lock()


def _shard_key(value: Hashable):
    """A representative of ``value``'s equality class, safe to ``repr``.

    Sharding is only correct when **equal values land in the same shard**
    (the disjointness argument routes every fact of a satisfying assignment
    by one shared value).  Python equality crosses types — ``True == 1 ==
    1.0 == Decimal(1)`` — but their reprs differ, so numbers are normalised
    to a canonical member of the class (int when integral, float otherwise)
    before hashing, mirroring the guarantee the builtin ``hash`` gives.
    Containers that compare by content are canonalised recursively, with
    frozensets ordered (their iteration order is salt-dependent for string
    elements).  Unequal values may still *collide* into one repr — that only
    costs shard balance, never correctness.  Custom value types are required
    to define ``__repr__`` consistently with ``__eq__`` (equal values, equal
    reprs); values stuck with the identity-based default repr are rejected
    loudly rather than silently misrouted.
    """
    if isinstance(value, str):
        # Plain strings pass through; str subclasses (str-mixin Enums) that
        # compare equal to the underlying string are flattened onto it.
        # str.__str__ directly, because subclasses override __str__ (an
        # enum's str() is its member name on Python >= 3.11).
        return str.__str__(value)
    if isinstance(value, numbers.Integral):  # includes bool and IntEnum
        return int(value)
    if isinstance(value, numbers.Rational) and value.denominator == 1:
        # Exact, NOT through float: Fraction(10**30) == 10**30 but
        # float() would round one and not the other.
        return int(value.numerator)
    if isinstance(value, numbers.Real):
        try:
            as_float = float(value)
        except (OverflowError, ValueError):
            # No float equals this value (an equal float would BE its own
            # float()), so staying un-normalised cannot split an equality
            # class across shards.
            return value
        return int(as_float) if as_float.is_integer() else as_float
    if isinstance(value, numbers.Complex) and value.imag == 0:
        return _shard_key(value.real)
    if isinstance(value, decimal.Decimal):
        # Decimal deliberately stays outside the numbers tower, but it DOES
        # compare equal across it (Decimal(1) == 1, Decimal("0.5") == 0.5).
        if value.is_finite() and value == value.to_integral_value():
            return int(value)
        try:
            return float(value)
        except (OverflowError, ValueError):
            return value
    if isinstance(value, tuple):
        return tuple(_shard_key(item) for item in value)
    if isinstance(value, frozenset):
        return "fs{" + ",".join(sorted(repr(_shard_key(item)) for item in value)) + "}"
    if isinstance(value, bytes):
        return bytes(value)
    if isinstance(value, range):
        # range compares as a sequence: range(0) == range(5, 5), and the
        # step is irrelevant below two elements.
        return (
            "range",
            len(value),
            value[0] if len(value) else None,
            value.step if len(value) > 1 else None,
        )
    if type(value).__repr__ is object.__repr__:
        # The default repr embeds the memory address: equal instances would
        # route to different shards (silently losing answers) and routing
        # would change between runs.  Refusing loudly beats wrong results.
        raise TypeError(
            f"cannot shard a value of type {type(value).__name__}: its "
            "identity-based default repr is not stable across equal "
            "instances or runs; define __repr__ consistently with __eq__"
        )
    return value


def shard_of(value: Hashable, shards: int) -> int:
    """The shard (``0 <= shard < shards``) a domain value hashes to.

    Deliberately *not* Python's builtin ``hash``: that is salted per process
    (``PYTHONHASHSEED``), and shard assignment must be reproducible across
    runs so a benchmark or a failing differential seed replays identically.
    CRC32 of the canonical repr (see :func:`_shard_key`) is stable, cheap,
    and spreads the small integer domains the generators use.
    """
    if shards < 1:
        raise ValueError("shards must be >= 1")
    if shards == 1:
        return 0
    return zlib.crc32(repr(_shard_key(value)).encode("utf-8")) % shards


class Relation:
    """A named relation: a set of equal-length tuples with a version seam.

    Mutation is append-only and *versioned*: every distinct row appended
    through :meth:`add` lands in an insertion-ordered log and bumps
    :attr:`version` (the log length).  Cache layers key on
    ``(relation, version)`` instead of cardinality fingerprints, and
    incremental consumers ask :meth:`delta_since` for exactly the rows that
    arrived after the version they last saw.  Duplicate appends are no-ops —
    they change neither the set, the log, nor the version.
    """

    def __init__(self, name: str, arity: int, tuples: Iterable[tuple] = ()) -> None:
        self.name = name
        self.arity = arity
        self.tuples: set[tuple] = set()
        #: Insertion-ordered append log; ``version == len(_log)`` always.
        self._log: list[tuple] = []
        self._sorted: list[tuple] | None = None
        self._sorted_version = -1
        for row in tuples:
            self.add(row)

    @property
    def version(self) -> int:
        """Monotone mutation counter: the number of distinct rows ever
        appended.  Equal to ``len(self.tuples)`` as long as all mutation
        goes through :meth:`add`."""
        return len(self._log)

    def add(self, row: Iterable[Value]) -> None:
        row = tuple(row)
        if len(row) != self.arity:
            raise ValueError(
                f"relation {self.name!r} has arity {self.arity}, got tuple of length {len(row)}"
            )
        if row not in self.tuples:
            self.tuples.add(row)
            self._log.append(row)

    def delta_since(self, version: int) -> tuple:
        """The rows appended after ``version``, in insertion order.

        ``delta_since(0)`` is every row; ``delta_since(self.version)`` is
        empty.  The contract behind semi-naive refresh: a consumer that saw
        the relation at version ``v`` catches up by processing exactly these
        rows.
        """
        if not 0 <= version <= len(self._log):
            raise ValueError(
                f"relation {self.name!r} is at version {len(self._log)}; "
                f"cannot compute delta since {version}"
            )
        return tuple(self._log[version:])

    def rows_at(self, version: int) -> list:
        """The rows the relation held at ``version``: the first ``version``
        log entries, in insertion order.  One list slice, so the prefix is
        consistent even while another thread appends."""
        return self._log[:version]

    @classmethod
    def _trusted(cls, name: str, arity: int, rows: Iterable[tuple]) -> "Relation":
        """Bulk-load pre-validated, distinct tuples without per-row checks
        (partitioning, copies).  Version state is coherent: the
        log holds every row, so ``delta_since`` and the version counter
        behave exactly as if the rows had been appended one by one."""
        relation = cls.__new__(cls)
        relation.name = name
        relation.arity = arity
        relation._log = list(rows)
        relation.tuples = set(relation._log)
        relation._sorted = None
        relation._sorted_version = -1
        return relation

    def __len__(self) -> int:
        return len(self.tuples)

    def __iter__(self):
        # Deterministic scan order, computed once per version: the sorted
        # order is cached and invalidated by the version counter, so the
        # naive solver's repeated scans stop paying the n·log(n) re-sort.
        if self._sorted is None or self._sorted_version != len(self._log):
            self._sorted = sorted(self.tuples, key=repr)
            self._sorted_version = len(self._log)
        return iter(self._sorted)

    def __contains__(self, row: tuple) -> bool:
        return tuple(row) in self.tuples

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Relation):
            return NotImplemented
        return self.name == other.name and self.arity == other.arity and self.tuples == other.tuples

    def __getstate__(self):
        # The log alone reconstructs the tuple set (it holds every distinct
        # row in insertion order), so pickles ship one sequence instead of
        # set + log + sort cache.
        return (self.name, self.arity, self._log)

    def __setstate__(self, state) -> None:
        self.name, self.arity, log = state
        self._log = list(log)
        self.tuples = set(self._log)
        self._sorted = None
        self._sorted_version = -1

    def size(self) -> int:
        """Number of cells stored in the relation."""
        return len(self.tuples) * max(1, self.arity)

    def __repr__(self) -> str:
        return (
            f"Relation({self.name!r}, arity={self.arity}, "
            f"tuples={len(self.tuples)}, version={len(self._log)})"
        )


class Database:
    """A database: a mapping from relation names to :class:`Relation` objects."""

    def __init__(self, relations: Mapping[str, Relation] | Iterable[Relation] = ()) -> None:
        self.relations: dict[str, Relation] = {}
        #: Lazily created columnar store (see :meth:`columnar_view`).
        self._columnar = None
        if isinstance(relations, Mapping):
            iterable = relations.values()
        else:
            iterable = relations
        for relation in iterable:
            self.add_relation(relation)

    # ------------------------------------------------------------------
    def add_relation(self, relation: Relation) -> None:
        if relation.name in self.relations:
            raise ValueError(f"relation {relation.name!r} already present")
        self.relations[relation.name] = relation

    def relation(self, name: str) -> Relation:
        if name not in self.relations:
            raise KeyError(f"relation {name!r} not in database")
        return self.relations[name]

    def has_relation(self, name: str) -> bool:
        return name in self.relations

    def atom_relation(self, atom) -> Relation:
        """The stored relation ``atom`` reads.  Raises ``ValueError`` when the
        relation holds rows whose arity differs from the atom's term count;
        a relation without rows answers empty at any arity (an inline JSON
        relation ``"R": []`` gets arity 0)."""
        relation = self.relation(atom.relation)
        if relation.arity != len(atom.terms) and relation.tuples:
            raise ValueError(
                f"atom {atom!r} has {len(atom.terms)} terms but relation "
                f"{relation.name!r} has arity {relation.arity}"
            )
        return relation

    def add_fact(self, name: str, row: Iterable[Value]) -> None:
        row = tuple(row)
        if name not in self.relations:
            self.relations[name] = Relation(name, len(row))
        self.relations[name].add(row)

    @property
    def version(self) -> int:
        """Monotone database-level version: total appended rows plus the
        number of relations.  Bumps on every ``add_fact`` of a new row and on
        every ``add_relation``, so any ``(id(db), db.version)`` key is safe
        to memoize on — growth anywhere in the database changes it."""
        return len(self.relations) + sum(
            relation.version for relation in self.relations.values()
        )

    # ------------------------------------------------------------------
    @property
    def columnar_cache(self):
        """The lazily created :class:`~repro.cq.columnar.ColumnarStore`
        (``None`` until :meth:`columnar_view` is first used)."""
        return self._columnar

    def columnar_store(self):
        """This database's columnar store, created on first use: one value
        interner, one id table per relation and the atom views over them.
        Creation is locked, so concurrent first callers share one store (and
        one interner) instead of each installing their own."""
        store = self._columnar
        if store is None:
            with _COLUMNAR_STORE_LOCK:
                store = self._columnar
                if store is None:
                    from repro.cq.columnar import ColumnarStore

                    store = self._columnar = ColumnarStore()
        return store

    def columnar_view(self, atom, store=None):
        """The :class:`~repro.cq.columnar.ColumnarRelation` snapshot of
        ``atom`` at its relation's current version, over this database's
        interner.

        A snapshot never changes: after an append through the storage API
        the next call returns a new one, which reads the appended rows off
        the relation's id table and shares the older snapshot's key
        structures (:class:`~repro.cq.columnar.ColumnarStore`).  A caller
        that takes several views, or a view and the interner, passes the
        ``store`` it read once, so a concurrent :meth:`drop_columnar` cannot
        mix two stores' interners in one call.
        """
        if store is None:
            store = self.columnar_store()
        return store.view(atom, self.atom_relation(atom))

    def drop_columnar(self) -> None:
        """Drop the columnar store (views *and* interned dictionary)."""
        self._columnar = None

    # ------------------------------------------------------------------
    def to_wire(self):
        """This database as one shipment: the
        :class:`~repro.cq.columnar.DatabaseDelta` from version zero, what
        the process runtime ships instead of pickling the tuple sets."""
        from repro.cq.columnar import encode_delta

        return encode_delta(self, {})

    @staticmethod
    def from_wire(wire) -> "Database":
        """A new database holding a shipment, with its id tables built."""
        return wire.apply(Database())

    def __getstate__(self) -> dict:
        # A pickle carries the relations only: the columnar store is derived
        # data, which the receiving process rebuilds over its own dictionary.
        state = self.__dict__.copy()
        state["_columnar"] = None
        return state

    # ------------------------------------------------------------------
    def size(self) -> int:
        """``||D||``: total cells plus number of relations."""
        return sum(r.size() for r in self.relations.values()) + len(self.relations)

    def total_tuples(self) -> int:
        return sum(len(r) for r in self.relations.values())

    def copy(self) -> "Database":
        clone = Database()
        for relation in self.relations.values():
            clone.add_relation(
                Relation._trusted(relation.name, relation.arity, relation._log)
            )
        return clone

    # ------------------------------------------------------------------
    def partition(
        self,
        key_columns: Mapping[str, int],
        shards: int,
        broadcast: Iterable[str] = (),
    ) -> list["Database"]:
        """Hash-partition the database into ``shards`` disjoint-plus-broadcast
        pieces.

        ``key_columns`` maps relation names to the column to partition on:
        each tuple of such a relation lands in exactly one shard, chosen by
        :func:`shard_of` on the value in that column.  Relations named in
        ``broadcast`` are replicated into every shard.  Relations in neither
        collection are omitted — the caller decides what the shards need
        (the engine passes exactly the relations of the query being sharded).

        The partitioned relations reconstruct the original exactly: every
        tuple appears in precisely one shard, so the shard databases are a
        partition of the partitioned relations and a replication of the
        broadcast ones.  A heavy-hitter key lands all its rows on one shard;
        that costs balance, never exactness.
        """
        if shards < 1:
            raise ValueError("shards must be >= 1")
        broadcast = tuple(broadcast)
        overlap = set(key_columns) & set(broadcast)
        if overlap:
            raise ValueError(
                f"relations {sorted(overlap)} cannot be both partitioned and broadcast"
            )
        for name in list(key_columns) + list(broadcast):
            if name not in self.relations:
                raise KeyError(f"relation {name!r} not in database")
        for name, column in key_columns.items():
            arity = self.relations[name].arity
            # A relation without rows partitions into empty pieces at any
            # column (an inline JSON relation "R": [] has arity 0).
            if self.relations[name].tuples and not 0 <= column < arity:
                raise ValueError(
                    f"partition column {column} out of range for relation "
                    f"{name!r} (arity {arity})"
                )
        pieces = [Database() for _ in range(shards)]
        for name, column in key_columns.items():
            relation = self.relations[name]
            buckets: list[list[tuple]] = [[] for _ in range(shards)]
            for row in relation._log:
                buckets[shard_of(row[column], shards)].append(row)
            for piece, bucket in zip(pieces, buckets):
                piece.add_relation(Relation._trusted(name, relation.arity, bucket))
        for name in broadcast:
            relation = self.relations[name]
            for piece in pieces:
                piece.add_relation(
                    Relation._trusted(name, relation.arity, relation._log)
                )
        return pieces

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Database):
            return NotImplemented
        return self.relations == other.relations

    def __repr__(self) -> str:
        return (
            f"Database(relations={len(self.relations)}, tuples={self.total_tuples()}, "
            f"size={self.size()})"
        )
