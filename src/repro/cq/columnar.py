"""Columnar relational kernel: interned value ids + array-backed relations.

This is the one evaluator of the decomposition-guided scheme (Proposition
2.2, and the counting DP of Proposition 4.14): the engine's decomposition
strategies and the paper-level functions of :mod:`repro.cq.decomposition_eval`
both run it.  A tuple-set kernel would pay Python's per-object price on
every row it touches: a join builds a key *tuple* per probe, hashes
arbitrary values, concatenates row tuples, and inserts each result into a
set.  This module removes that price structurally:

* **value interning** — every distinct database value is mapped once to a
  small integer id through a per-database :class:`ValueInterner`.  After
  that, every relational operation works on ints, and multi-column join
  keys *pack* into a single int (``k = k * base + id``, a bijection for
  ``base = |dictionary|``);
* **columnar storage** — a :class:`ColumnarRelation` stores a relation as
  parallel columns of ids, one per variable;
* **two execution paths, chosen by size** — an operator whose own (probe)
  side holds at least :data:`_VECTOR_MIN_ROWS` rows (for a cross product:
  whose two sides make that many pairs) runs on NumPy int64
  arrays: keys pack with whole-array arithmetic.  Interned ids are dense,
  so when a table indexed by key (sized from the largest key held) has
  at most :data:`_DENSE_FACTOR` slots per operand row, a semijoin reads a
  boolean mask of the build keys, a join takes its run lengths from a
  ``bincount`` of the build keys and expands the probe rows in order, and
  a count-DP edge sums child weights into the table with ``np.add.at``.
  Sparser domains sort: ``np.isin``, a join matching sorted key vectors
  with ``searchsorted``, sorted segment sums.  Joins expand matches by
  ``repeat``/``cumsum`` offsets and gather each column with one fancy
  index; dedup projection keeps the first row of each run of equal sorted
  keys.  Smaller operators keep the dict/list code: packed
  keys probe ``dict``/``set`` objects keyed by plain ints, and columns
  gather with one list comprehension each.  That path is faster on small
  relations (per-call NumPy overhead dominates there) and is the exact
  fallback whenever a packed key or a count weight could leave int64;
* **column representations** — results of the NumPy path and resident
  atom views with at least :data:`_VECTOR_MIN_ROWS` rows keep int64
  ``ndarray`` columns; smaller results and dict-path results hold
  ``array('q')``/list columns, copied to int64 (and memoized) when a
  vectorised operator first reads them.  Decoded rows, which leave the
  kernel, hold Python values;
* **resident id tables** — a :class:`ColumnarStore` interns each stored
  row once into one append-only id table per relation and serves atom
  views as immutable snapshots of it, so an append never changes a view
  a reader holds;
* **memoized key structures** — packed key vectors, hash buckets and key
  sets (dict path), and int64 key vectors and their sort orders (NumPy
  path) are cached per (column set, pack base) on the relation in bounded
  LRU memos, so the Yannakakis passes touch each side of an edge once.
  The snapshots of a resident view share their buckets, key sets and sort
  orders, topped up or merged with the appended rows.  Each operator
  reads the pack base once and passes it to both sides;
* **exact statistics** — a column's degree vector (:meth:`ColumnarRelation
  .degrees`) is one ``np.bincount`` over its dense ids, memoized with the
  NumPy path's keys; the cost-based join order reads it through
  :mod:`repro.cq.statistics`;
* **factorized counting** — the counting DP runs over per-row weight
  vectors and packed keys (table or sorted segment sums on the NumPy
  path), so ``count()`` on full acyclic/GHD plans never materializes a
  result row;
* **bags as arrays** — when the largest atom view reaches
  :data:`_VECTOR_MIN_ROWS` rows, every relation of every bag pool is dense
  (at most :data:`_DENSE_FACTOR` cells per row in an array sized from its
  largest ids) and every bag's array stays within
  :data:`_BAG_ARRAY_CELLS` cells, a bag tree holds each bag as a boolean
  :class:`BagArray` over the ids instead of rows: a semijoin is a mask, a
  projection an ``any`` reduction and the counting DP a sum-product.  A
  join runs on the row kernel over both sides' ``np.nonzero`` rows, and a
  count past int64 reruns the exact DP on the bags' rows;
* **decode once at the boundary** — ids are decoded back to values only
  when an answer set leaves the kernel (:meth:`ColumnarRelation
  .decode_rows`), one list comprehension per output column.

:func:`build_columnar_bag_tree` arranges :class:`ColumnarRelation` (or
:class:`BagArray`) objects along the decomposition with the atom placement
and rooting of :mod:`repro.cq.bags`, and the resulting
:class:`~repro.cq.yannakakis.JoinTree` runs through the generic
``yannakakis_boolean`` / ``yannakakis_full`` / ``semijoin_reduce`` passes,
which are duck-typed over the relation interface (``columns``,
``natural_join``, ``semijoin``, ``semijoin_inplace``, ``project``,
``__len__``).  The counting DP is :func:`columnar_count_join_tree`.

The engine dispatches the decomposition strategies here through
:class:`repro.engine.backends.ColumnarBackend`; conversion and
caching live at the :class:`~repro.cq.database.Database` layer
(``Database.columnar_view``) behind the relations' version seam: appends
through the storage API are interned onto the id tables instead of
invalidating anything.  One shipment form crosses to process workers:
:class:`DatabaseDelta`, the rows appended after a base version as id
columns over one dictionary, whose delta from version zero is a full copy;
applying it interns the dictionary once and extends the receiver's id
tables, so the copy never re-interns a stored row.
"""

from __future__ import annotations

import contextlib
import math
import threading
from array import array
from collections.abc import Hashable, Sequence

import numpy as np

from repro.cq.bags import (
    DecompositionMismatchError,
    assign_atoms_to_nodes,
    atoms_by_scope,
    root_tree,
)
from repro.cq.database import Relation
from repro.cq.query import ConjunctiveQuery
from repro.cq.relational import NamedRelation, atom_shape, natural_join_all
from repro.cq.yannakakis import JoinTree, yannakakis_boolean, yannakakis_full

#: Entries kept per relation per derived-key memo (packed key vectors, hash
#: buckets, key sets; int64 columns, keys and sort orders).  A relation
#: participates in a handful of key-column sets over its lifetime; the cap
#: only matters for long-lived resident views probed under many distinct
#: patterns, where unbounded memos were a slow leak.
_MEMO_CAP = 16

#: Operators whose own (probe) side holds at least this many rows run on
#: NumPy int64 arrays; smaller ones keep the dict/list code.  The measured
#: crossover (docs/PERFORMANCE.md): from 512 rows the NumPy path wins every
#: operator, with cold or warm memos; at 256 rows a dict-path semijoin
#: against a memoized key set still wins, because a dozen NumPy calls cost
#: more than the per-row loop they replace.  Cross products compare their
#: pair count with the same bound; NumPy wins those from 80 pairs up.
_VECTOR_MIN_ROWS = 512

#: A NumPy-path join, semijoin or count-DP edge addresses its key domain
#: directly (a table indexed by packed key) when that table, sized from the
#: largest key it holds, has at most this many slots per operand row;
#: sparser domains sort.  The measured sweep (docs/PERFORMANCE.md): at 1k
#: and 20k rows every dense operator wins up to 4 slots per row, and the
#: join stops winning at 8.
_DENSE_FACTOR = 4

#: A bag tree is held as boolean arrays (:class:`BagArray`) only while each
#: bag's array, over its pool's variables, has at most this many cells.
#: The measured table (docs/PERFORMANCE.md): on 6-cycle bags of d**3 cells
#: at 1 to 4 cells per pool row, the array form wins both the answer (build
#: + upward pass) and the count (build + DP) at every size up to d = 128,
#: 2**21 cells.  The bound stops there, where the count's int64 weights
#: take 16 MB per bag.
_BAG_ARRAY_CELLS = 1 << 21

#: Atom patterns whose resident snapshots one :class:`ColumnarStore` keeps,
#: least recently used evicted first.  The engine evaluates canonical
#: spellings, so the patterns are those of its query classes; 512 holds the
#: service benchmark's 504 (docs/PERFORMANCE.md → Canonical query
#: identity).
VIEW_CACHE_SIZE = 512

#: The largest int64; packed keys and count weights above it would wrap.
_INT64_MAX = (1 << 63) - 1

_MEMO_COUNTERS = {"hits": 0, "misses": 0, "evictions": 0}


def memo_counters() -> dict:
    """A snapshot of the process-wide derived-key memo counters."""
    return dict(_MEMO_COUNTERS)


def reset_memo_counters() -> None:
    """Zero the memo counters (test isolation)."""
    for key in _MEMO_COUNTERS:
        _MEMO_COUNTERS[key] = 0


class _BoundedMemo(dict):
    """A small LRU memo for one relation's derived key structures.

    A plain dict with insertion order as recency: :meth:`lookup` reinserts
    on hit, :meth:`store` evicts the least recently used entry at the cap.
    The snapshots of one resident view share some of these memos, so
    threads may hit one concurrently.
    """

    __slots__ = ()

    def lookup(self, key):
        # pop + reinsert rather than get + del: two threads hitting the
        # same entry of a shared relation must not both try to delete it.
        value = self.pop(key, None)
        if value is None:
            _MEMO_COUNTERS["misses"] += 1
            return None
        _MEMO_COUNTERS["hits"] += 1
        self[key] = value
        return value

    def store(self, key, value) -> None:
        if key not in self and len(self) >= _MEMO_CAP:
            self.pop(next(iter(self), None), None)
            _MEMO_COUNTERS["evictions"] += 1
        self[key] = value


class _Covering:
    """A memoized key structure over the first ``rows`` rows of a relation.

    The snapshots of one resident view share their hash buckets, key sets
    and sort orders (:meth:`ColumnarStore.view`), so an entry can cover
    more or fewer rows than the snapshot reading it.  A reader at more rows
    tops a bucket or key-set entry up in place under the store's lock: it
    raises ``limit`` before the new rows land and ``rows`` after, so a
    reader that finds ``limit`` still at most its own length after its
    probe loop saw no later row.  One that finds it past its length drops
    the later matches (row ids only ever append in increasing order) or,
    for a key set, which records no rows, tests its own keys instead.  A
    merged sort order is published as a new entry.
    """

    __slots__ = ("rows", "limit", "value")

    def __init__(self, rows: int, value) -> None:
        self.rows = self.limit = rows
        self.value = value


#: The lock an ordinary relation's memos take: nothing else shares them.
_UNSHARED = contextlib.nullcontext()


class ValueInterner:
    """A grow-only bijection ``value <-> small int id`` for one database.

    Equal values (Python equality — ``1 == True == 1.0``) share one id, so
    id equality coincides with value equality exactly as tuple-set
    membership does; decoding returns the first-interned representative of
    the equality class, which compares equal to every member.
    """

    __slots__ = ("_ids", "values")

    def __init__(self) -> None:
        self._ids: dict = {}
        #: id -> value, the decode table (index == id).
        self.values: list = []

    def intern(self, value: Hashable) -> int:
        ident = self._ids.get(value)
        if ident is None:
            ident = len(self.values)
            self._ids[value] = ident
            self.values.append(value)
        return ident

    def id_of(self, value: Hashable) -> int | None:
        """The id of an already-interned value, ``None`` if never seen."""
        return self._ids.get(value)

    def __len__(self) -> int:
        return len(self.values)

    def __repr__(self) -> str:
        return f"ValueInterner(size={len(self.values)})"


def _ints(vector) -> Sequence[int]:
    """A column as a sequence of Python ints (what the dict path and the
    decoder consume): int64 arrays convert, ``array``/list columns pass
    through."""
    return vector.tolist() if isinstance(vector, np.ndarray) else vector


def _take_list(vector, indexes: list) -> list:
    """``[vector[i] for i in indexes]`` as Python ints, for any column."""
    if isinstance(vector, np.ndarray):
        return vector[indexes].tolist()
    return [vector[i] for i in indexes]


def _stored(data: tuple, length: int) -> tuple:
    """A vectorised operator's int64 result columns as the relation stores
    them: kept at or above :data:`_VECTOR_MIN_ROWS` rows, lists below."""
    if length >= _VECTOR_MIN_ROWS:
        return data
    return tuple(vector.tolist() for vector in data)


def _packs(base: int, width: int) -> bool:
    """Whether ``width`` ids below ``base`` pack into one int64 key (the
    largest packed key is ``base ** width - 1``)."""
    return base ** width <= _INT64_MAX + 1


def _dense_size(*keys: np.ndarray) -> int | None:
    """The size of a direct-address table over the packed key vectors
    ``keys`` (their largest key + 1), or ``None`` when it exceeds
    :data:`_DENSE_FACTOR` slots per key.  Sized from the keys, never from
    the dictionary, which other threads can grow mid-operator."""
    top = max((int(vector.max()) for vector in keys if len(vector)), default=-1)
    return top + 1 if top < _DENSE_FACTOR * sum(map(len, keys)) else None


def _argsort(keys: np.ndarray) -> np.ndarray:
    """An order that sorts ``keys``.  Keys below ``2**16`` take a stable
    ``argsort`` on ``uint16``, which NumPy runs as a radix sort; wider keys
    take the default (unstable) ``argsort``, about five times faster than
    a stable one on int64."""
    if len(keys) and keys.max() < 1 << 16:
        return np.argsort(keys.astype(np.uint16), kind="stable")
    return np.argsort(keys)


def _fill_buckets(buckets: dict, keys, start: int) -> None:
    """Append rows ``start, start + 1, ...`` (keyed by ``keys``) to their
    hash buckets."""
    get = buckets.get
    for index, key in enumerate(keys, start):
        rows = get(key)
        if rows is None:
            buckets[key] = [index]
        else:
            rows.append(index)


def _fill_keys(keyset: set, keys, start: int) -> None:
    """Add the keys of rows ``start, start + 1, ...`` to a key set."""
    keyset.update(keys)


class ColumnarRelation:
    """A relation stored as parallel columns of interned value ids.

    The row set is implicit: row ``i`` is ``(data[0][i], ..., data[w-1][i])``.
    Rows are kept **distinct** by construction — sources are built from
    tuple *sets*, joins of distinct inputs are distinct, and projection
    deduplicates — so no operation needs an output set.  ``length`` is
    explicit so zero-column relations (the relational units ``{}`` and
    ``{()}``) keep their cardinality.  Columns are ``array('q')``/lists, or
    int64 ``ndarray``s on relations of at least :data:`_VECTOR_MIN_ROWS`
    rows produced by a vectorised operator or served by a
    :class:`ColumnarStore`.  A relation never changes once built, except
    through :meth:`semijoin_inplace` on one an evaluator owns.
    """

    __slots__ = (
        "columns", "interner", "_data", "_length", "_positions",
        "_key_cache", "_bucket_cache", "_keyset_cache", "_order_cache",
        "_project_cache", "_vector_cache", "_lock",
    )

    def __init__(
        self,
        columns: Sequence[Hashable],
        interner: ValueInterner,
        data: Sequence[Sequence[int]] = (),
        length: int | None = None,
    ) -> None:
        columns = tuple(columns)
        data = tuple(data)
        if len(data) != len(columns):
            raise ValueError(
                f"{len(columns)} columns but {len(data)} data vectors"
            )
        if length is None:
            length = len(data[0]) if data else 0
        if any(len(vector) != length for vector in data):
            raise ValueError("column vectors must share one length")
        self._init(columns, interner, data, length)

    def _init(self, columns, interner, data, length) -> None:
        self.columns = columns
        self.interner = interner
        self._data = data
        self._length = length
        self._positions = {c: i for i, c in enumerate(columns)}
        if len(self._positions) != len(columns):
            raise ValueError(f"duplicate column names: {columns!r}")
        self._key_cache = _BoundedMemo()
        self._bucket_cache = _BoundedMemo()
        self._keyset_cache = _BoundedMemo()
        self._order_cache = _BoundedMemo()
        self._project_cache = _BoundedMemo()
        self._vector_cache = _BoundedMemo()
        self._lock = _UNSHARED

    @classmethod
    def _trusted(cls, columns, interner, data, length) -> "ColumnarRelation":
        relation = object.__new__(cls)
        relation._init(tuple(columns), interner, tuple(data), length)
        return relation

    def _share(self, memos: tuple, lock) -> None:
        """Read and top up ``memos`` — hash buckets, key sets and sort
        orders shared with the other snapshots of one resident view — under
        ``lock``."""
        self._bucket_cache, self._keyset_cache, self._order_cache = memos
        self._lock = lock

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._length

    def __bool__(self) -> bool:
        return self._length > 0

    def __repr__(self) -> str:
        return (
            f"ColumnarRelation(columns={self.columns!r}, rows={self._length})"
        )

    def column_index(self, column: Hashable) -> int:
        try:
            return self._positions[column]
        except KeyError:
            raise ValueError(
                f"{column!r} is not a column of {self.columns!r}"
            ) from None

    def column(self, column: Hashable) -> Sequence[int]:
        """The id vector of one column (shared, do not mutate)."""
        return self._data[self.column_index(column)]

    def id_rows(self):
        """Iterate the rows as tuples of ids (tests and debugging)."""
        if not self.columns:
            return iter([()] * self._length)
        return zip(*(_ints(vector) for vector in self._data))

    # ------------------------------------------------------------------
    # Conversion boundary
    # ------------------------------------------------------------------
    @classmethod
    def from_named(
        cls, relation: NamedRelation, interner: ValueInterner
    ) -> "ColumnarRelation":
        """Intern a named relation into columns over ``interner``."""
        rows = relation.rows
        if not relation.columns:
            return cls._trusted((), interner, (), 1 if rows else 0)
        intern = interner.intern
        if rows:
            data = tuple(
                array("q", [intern(value) for value in column])
                for column in zip(*rows)
            )
        else:
            data = tuple(array("q") for _ in relation.columns)
        return cls._trusted(relation.columns, interner, data, len(rows))

    def to_named(self) -> NamedRelation:
        """Decode back to a :class:`NamedRelation`."""
        return NamedRelation._trusted(self.columns, self.decode_rows())

    def decode_rows(self) -> set[tuple]:
        """The row set as value tuples — the single decode point where id
        space leaves the kernel (one list comprehension per column)."""
        if not self.columns:
            return {()} if self._length else set()
        values = self.interner.values
        decoded = [
            [values[ident] for ident in _ints(column)] for column in self._data
        ]
        return set(zip(*decoded))

    # ------------------------------------------------------------------
    # Packed key vectors, dict path (memoized per column set x pack base)
    # ------------------------------------------------------------------
    # Every key structure takes its pack ``base`` from the operator, which
    # reads ``len(self.interner)`` once and hands it to both sides: another
    # thread can intern values between two reads, and keys packed under two
    # bases neither match nor stay distinct.
    def _keys(self, columns: Sequence[Hashable], base: int) -> Sequence[int]:
        """One Python int key per row over the given columns: the column
        itself for a single key column, ids packed into one int otherwise
        (``base = |dictionary|`` makes packing a bijection; the base is part
        of the memo key because the dictionary can grow between
        operations).  Python ints never overflow, so this path is exact for
        any key width."""
        positions = tuple(self._positions[c] for c in columns)
        if len(positions) == 1:
            return _ints(self._data[positions[0]])
        cache_key = (positions, base)
        keys = self._key_cache.lookup(cache_key)
        if keys is None:
            keys = self._range_keys(positions, base, 0)
            self._key_cache.store(cache_key, keys)
        return keys

    def _range_keys(self, positions: tuple, base: int, start: int):
        """The packed Python-int keys of rows ``[start, len(self))``."""
        if not positions:
            return [0] * (self._length - start)
        vectors = [
            _ints(self._data[p][start:] if start else self._data[p])
            for p in positions
        ]
        keys = vectors[0]
        for vector in vectors[1:]:
            keys = [k * base + i for k, i in zip(keys, vector)]
        return keys

    def _cache_key(self, columns: Sequence[Hashable], base: int) -> tuple:
        positions = tuple(self._positions[c] for c in columns)
        return (positions, base if len(positions) > 1 else 0)

    def _buckets(self, columns: Sequence[Hashable], base: int) -> _Covering:
        """Hash index ``key -> row indexes, ascending`` (the join build
        side), covering at least this relation's rows."""
        return self._covering(self._bucket_cache, columns, base, dict, _fill_buckets)

    def _keyset(self, columns: Sequence[Hashable], base: int) -> _Covering:
        """The set of packed keys (the semijoin probe side), covering at
        least this relation's rows."""
        return self._covering(self._keyset_cache, columns, base, set, _fill_keys)

    def _covering(self, memo, columns, base, empty, fill) -> _Covering:
        """The memo entry for ``columns``, built or topped up to cover this
        relation's rows.  A reader pinned at fewer rows than the entry
        covers (another snapshot topped it up, maybe mid-read) keeps only
        the rows below its own length: see the two dict-path operators."""
        cache_key = self._cache_key(columns, base)
        n = self._length
        entry = memo.lookup(cache_key)
        if entry is None:
            entry = _Covering(n, empty())
            fill(entry.value, self._keys(columns, base), 0)
            self._publish(memo, cache_key, entry)
        elif entry.rows < n:
            with self._lock:
                start = entry.rows
                if start < n:
                    entry.limit = n
                    fill(entry.value, self._range_keys(cache_key[0], base, start), start)
                    entry.rows = n
        return entry

    def _publish(self, memo, cache_key, entry: _Covering) -> None:
        """Store ``entry`` unless the memo holds one covering as many rows."""
        with self._lock:
            current = memo.get(cache_key)
            if current is None or current.rows < entry.rows:
                memo.store(cache_key, entry)

    # ------------------------------------------------------------------
    # Packed key vectors, NumPy path (memoized like the dict path's)
    # ------------------------------------------------------------------
    def _column_array(self, position: int) -> np.ndarray:
        """One column as an int64 array; ``array``/list columns are
        copied and memoized."""
        vector = self._data[position]
        if isinstance(vector, np.ndarray):
            return vector
        cache_key = ((position,), 0)
        column = self._vector_cache.lookup(cache_key)
        if column is None:
            column = np.array(vector, dtype=np.int64)
            self._vector_cache.store(cache_key, column)
        return column

    def _vector_keys(
        self, columns: Sequence[Hashable], base: int
    ) -> np.ndarray | None:
        """The packed keys as one int64 array, or ``None`` when
        ``|dictionary| ** width`` could exceed int64 — packing would wrap
        silently, so the caller takes the exact dict path instead."""
        positions, base = cache_key = self._cache_key(columns, base)
        if len(positions) == 1:
            return self._column_array(positions[0])
        if not _packs(base, len(positions)):
            return None
        keys = self._vector_cache.lookup(cache_key)
        if keys is None:
            keys = self._column_array(positions[0])
            for position in positions[1:]:
                keys = keys * base + self._column_array(position)
            self._vector_cache.store(cache_key, keys)
        return keys

    def _sorted_keys(
        self, columns: Sequence[Hashable], base: int
    ) -> tuple | None:
        """``(order, keys[order])`` for the packed keys, or ``None`` when
        they do not fit int64: the dedup projection's runs, the sort-path
        join's and count DP's sorted keys, and the dense join's build
        order (:func:`_argsort`).  No caller needs the order of equal keys.

        The snapshots of a resident view share this memo.  An entry over
        fewer rows merges the appended rows' keys in (``searchsorted``
        slots, then ``np.insert``) instead of re-sorting every row; an
        entry over more rows drops the rows at or past this relation's
        length, which keeps the rest in order."""
        cache_key = self._cache_key(columns, base)
        n = self._length
        entry = self._order_cache.lookup(cache_key)
        if entry is not None and entry.rows >= n:
            if entry.rows == n:
                return entry.value
            order, keys = entry.value
            kept = order < n
            return order[kept], keys[kept]
        keys = self._vector_keys(columns, base)
        if keys is None:
            return None
        if entry is None:
            order = _argsort(keys)
            value = (order, keys[order])
        else:
            start = entry.rows
            order, sorted_keys = entry.value
            added = _argsort(keys[start:]) + start
            added_keys = keys[added]
            slots = np.searchsorted(sorted_keys, added_keys, side="right")
            value = (
                np.insert(order, slots, added),
                np.insert(sorted_keys, slots, added_keys),
            )
        self._publish(self._order_cache, cache_key, _Covering(n, value))
        return value

    def _invalidate(self) -> None:
        self._key_cache.clear()
        self._bucket_cache.clear()
        self._keyset_cache.clear()
        self._order_cache.clear()
        self._project_cache.clear()
        self._vector_cache.clear()

    def degrees(self, column: Hashable) -> np.ndarray:
        """The exact degree vector of one column: entry ``k`` counts the
        rows holding id ``k`` there (one ``np.bincount``; ids past its end
        occur nowhere).  Id equality is value equality, so these are the
        column's exact value frequencies.  Memoized with the NumPy path's
        keys."""
        position = self._positions[column]
        cache_key = ("degrees", position)
        degrees = self._vector_cache.lookup(cache_key)
        if degrees is None:
            degrees = np.bincount(self._column_array(position))
            self._vector_cache.store(cache_key, degrees)
        return degrees

    def _id_bounds(self) -> tuple:
        """Each column's largest id + 1 (0 on an empty relation): the
        smallest shape of the relation's boolean array.  One ``max`` per
        column, memoized with the NumPy path's keys."""
        bounds = self._vector_cache.lookup(("bounds",))
        if bounds is None:
            bounds = tuple(
                int(self._column_array(p).max()) + 1 if self._length else 0
                for p in range(len(self._data))
            )
            self._vector_cache.store(("bounds",), bounds)
        return bounds

    def _bag_array(self, shape: tuple) -> np.ndarray:
        """The relation as a read-only boolean array of ``shape`` (at least
        :meth:`_id_bounds` on every axis): cell ``(i, j, ...)`` is set iff
        the row of ids ``(i, j, ...)`` is held.  Memoized per shape."""
        cache_key = ("array", shape)
        array = self._vector_cache.lookup(cache_key)
        if array is None:
            array = np.zeros(shape, dtype=bool)
            if self._data:
                array[tuple(map(self._column_array, range(len(self._data))))] = True
            else:
                array[()] = self._length > 0
            array.flags.writeable = False
            self._vector_cache.store(cache_key, array)
        return array

    def _taken(self, indexes) -> tuple:
        """The columns gathered at ``indexes``: an int64 index array takes
        the NumPy gather (results below :data:`_VECTOR_MIN_ROWS` rows go
        back to lists), a list the per-column comprehension."""
        if isinstance(indexes, np.ndarray):
            return _stored(
                tuple(
                    self._column_array(p)[indexes]
                    for p in range(len(self._data))
                ),
                len(indexes),
            )
        return tuple(_take_list(vector, indexes) for vector in self._data)

    # ------------------------------------------------------------------
    # Relational algebra
    # ------------------------------------------------------------------
    def project(self, columns: Sequence[Hashable]) -> "ColumnarRelation":
        """Projection with dedup over the id arrays: sorted keys keep the
        first row of each run of equal keys on the NumPy path; the dict
        path dedups with a seen-set (single-column projections ride
        ``dict.fromkeys``'s C path).

        Memoized per column tuple (bounded, LRU like the key memos): the
        bag-materialisation pool projects the same resident atom views with
        the same column sets on every call, and a cached projection keeps
        not just its arrays but its own key indexes and degree vectors warm
        across calls.  Derived projections are never mutated — the semijoin
        pass only filters relations it created itself — and each snapshot
        of a resident view keeps its own."""
        columns = tuple(columns)
        if columns == self.columns:
            return self
        cached = self._project_cache.lookup(columns)
        if cached is not None:
            return cached
        if len(set(columns)) != len(columns):
            raise ValueError(f"duplicate column names: {columns!r}")
        positions = [self.column_index(c) for c in columns]
        if not positions:
            projected = ColumnarRelation._trusted(
                (), self.interner, (), 1 if self._length else 0
            )
        else:
            base = len(self.interner)
            projected = self._vector_project(columns, positions, base)
            if projected is None:
                projected = self._dict_project(columns, positions, base)
        self._project_cache.store(columns, projected)
        return projected

    def _vector_project(self, columns, positions, base) -> "ColumnarRelation | None":
        if self._length < _VECTOR_MIN_ROWS or not self._length:
            return None
        entry = self._sorted_keys(columns, base)
        if entry is None:
            return None
        order, keys = entry
        first = np.empty(len(keys), dtype=bool)
        first[0] = True
        np.not_equal(keys[1:], keys[:-1], out=first[1:])
        survivors = order[first]
        data = tuple(self._column_array(p)[survivors] for p in positions)
        return ColumnarRelation._trusted(
            columns, self.interner, _stored(data, len(survivors)), len(survivors)
        )

    def _dict_project(self, columns, positions, base) -> "ColumnarRelation":
        if len(positions) == 1:
            unique = list(dict.fromkeys(_ints(self._data[positions[0]])))
            return ColumnarRelation._trusted(
                columns, self.interner, (unique,), len(unique)
            )
        keys = self._keys(columns, base)
        seen: set = set()
        add = seen.add
        survivors = [
            i for i, k in enumerate(keys) if not (k in seen or add(k))
        ]
        data = tuple(_take_list(self._data[p], survivors) for p in positions)
        return ColumnarRelation._trusted(
            columns, self.interner, data, len(survivors)
        )

    def natural_join(self, other: "ColumnarRelation") -> "ColumnarRelation":
        """Join on the shared columns; ``self`` is the probe side.  A probe
        side of at least :data:`_VECTOR_MIN_ROWS` rows matches int64 key
        vectors (:meth:`_vector_matches`), a smaller one probes int-keyed
        hash buckets built over ``other``.  A cross product (no shared
        column) has no key to probe: its cost is the ``len(self) *
        len(other)`` pairs it gathers, so that product, not the probe side
        alone, selects the NumPy path (both crossovers are measured in
        docs/PERFORMANCE.md)."""
        if isinstance(other, BagArray):
            other = other.rows()
        if self.interner is not other.interner:
            raise ValueError("cannot join relations over different interners")
        shared = [c for c in self.columns if c in other._positions]
        other_only = [c for c in other.columns if c not in self._positions]
        result_columns = self.columns + tuple(other_only)
        base = len(self.interner)
        matches = None
        if self._length >= _VECTOR_MIN_ROWS or (
            not shared and self._length * other._length >= _VECTOR_MIN_ROWS
        ):
            matches = self._vector_matches(other, shared, base)
        if matches is not None:
            left, right = matches
            data = tuple(
                self._column_array(p)[left] for p in range(len(self._data))
            ) + tuple(
                other._column_array(other._positions[c])[right]
                for c in other_only
            )
            return ColumnarRelation._trusted(
                result_columns, self.interner, _stored(data, len(left)), len(left)
            )
        if not shared:
            m = len(other)
            left = [i for i in range(self._length) for _ in range(m)]
            right = list(range(m)) * self._length
        else:
            entry = other._buckets(shared, base)
            get = entry.value.get
            left: list[int] = []
            right: list[int] = []
            extend_left = left.extend
            extend_right = right.extend
            for index, key in enumerate(self._keys(shared, base)):
                rows = get(key)
                if rows is not None:
                    # Extend ``right`` first, in one step: another snapshot
                    # can append to a shared bucket between two reads of it.
                    extend_right(rows)
                    extend_left([index] * (len(right) - len(left)))
            if entry.limit > other._length:
                # Another snapshot of ``other`` topped the shared buckets
                # up: keep the matches within ``other``'s own rows.
                pairs = [
                    (i, j) for i, j in zip(left, right) if j < other._length
                ]
                left = [i for i, _ in pairs]
                right = [j for _, j in pairs]
        data = tuple(
            _take_list(vector, left) for vector in self._data
        ) + tuple(
            _take_list(other._data[other._positions[c]], right)
            for c in other_only
        )
        return ColumnarRelation._trusted(
            result_columns, self.interner, data, len(left)
        )

    def _vector_matches(self, other, shared, base) -> tuple | None:
        """Row index arrays ``(left, right)`` of every matching pair, or
        ``None`` when the keys do not pack into int64.

        The build side's keys are sorted (memoized, so every probe against
        it reuses the sort); probe row ``j`` matches the build run
        ``[lo_j, lo_j + count_j)``.  Over a dense key domain
        (:func:`_dense_size`) the run lengths are one ``bincount`` of the
        build keys and their starts its ``cumsum``, both read at each
        probe key, so the probe rows expand in their own order.  Otherwise
        the probe keys are sorted too (memoized) and ``searchsorted`` finds
        each run, several times faster on sorted needles than on unsorted
        ones.  Either way ``repeat`` expands the probe rows and a
        ``cumsum`` offset walks each run."""
        if not shared:
            n, m = self._length, other._length
            return (
                np.repeat(np.arange(n, dtype=np.int64), m),
                np.tile(np.arange(m, dtype=np.int64), n),
            )
        keys = self._vector_keys(shared, base)
        build = other._sorted_keys(shared, base)
        if keys is None or build is None:
            return None
        build_order, build_keys = build
        size = _dense_size(keys, build_keys)
        if size is not None:
            runs = np.bincount(build_keys, minlength=size)
            probe_rows = np.arange(len(keys), dtype=np.int64)
            counts = runs[keys]
            lo = (np.cumsum(runs) - runs)[keys]
        else:
            probe_rows, probe_keys = self._sorted_keys(shared, base)
            lo = np.searchsorted(build_keys, probe_keys, side="left")
            counts = np.searchsorted(build_keys, probe_keys, side="right") - lo
        left = np.repeat(probe_rows, counts)
        ends = np.cumsum(counts)
        offsets = np.repeat(lo - (ends - counts), counts)
        right = build_order[np.arange(len(left), dtype=np.int64) + offsets]
        return left, right

    def _vector_survivors(self, other, shared, base) -> np.ndarray | None:
        """Indexes of the rows whose packed key occurs in ``other``, or
        ``None`` when the keys do not pack into int64.  Over a dense key
        domain a boolean mask marks ``other``'s keys and is read at each
        row's key; otherwise ``np.isin``."""
        keys = self._vector_keys(shared, base)
        build = other._vector_keys(shared, base)
        if keys is None or build is None:
            return None
        size = _dense_size(keys, build)
        if size is None:
            return np.flatnonzero(np.isin(keys, build))
        present = np.zeros(size, dtype=bool)
        present[build] = True
        return np.flatnonzero(present[keys])

    def semijoin(self, other: "ColumnarRelation") -> "ColumnarRelation":
        """Grouped semijoin filtering: keep rows whose packed key occurs in
        ``other``.  Returns ``self`` (no copy) when nothing is filtered."""
        survivors = self._semijoin_survivors(other)
        if survivors is None:
            return self
        return ColumnarRelation._trusted(
            self.columns, self.interner, self._taken(survivors), len(survivors)
        )

    def semijoin_inplace(self, other: "ColumnarRelation") -> "ColumnarRelation":
        """Like :meth:`semijoin` but rebinds this relation's columns,
        invalidating its memoized keys only when rows were removed."""
        survivors = self._semijoin_survivors(other)
        if survivors is not None:
            self._data = self._taken(survivors)
            self._length = len(survivors)
            self._invalidate()
        return self

    def _semijoin_survivors(self, other: "ColumnarRelation"):
        """Surviving row indexes (an int64 array on the NumPy path, a list
        on the dict path), or ``None`` when every row survives."""
        if self.interner is not other.interner:
            raise ValueError("cannot semijoin relations over different interners")
        shared = [c for c in self.columns if c in other._positions]
        if not shared:
            return None if other._length else []
        base = len(self.interner)
        if self._length >= _VECTOR_MIN_ROWS:
            survivors = self._vector_survivors(other, shared, base)
            if survivors is not None:
                return None if len(survivors) == self._length else survivors
        entry = other._keyset(shared, base)
        keyset = entry.value
        keys = self._keys(shared, base)
        survivors = [i for i, k in enumerate(keys) if k in keyset]
        if entry.limit > other._length:
            # Another snapshot of ``other`` topped the shared key set up
            # with later rows: test against ``other``'s own keys instead.
            keyset = set(other._keys(shared, base))
            survivors = [i for i, k in enumerate(keys) if k in keyset]
        if len(survivors) == self._length:
            return None
        return survivors


# ----------------------------------------------------------------------
# Per-database conversion + caching (consumed via Database.columnar_view)
# ----------------------------------------------------------------------
class _IdTable:
    """Append-only int64 id columns, one per argument position.

    The buffers keep spare capacity and grow by doubling.  An append writes
    past the published ``length``, then publishes the new one, so a row
    below a published length is never written again: the ``[:n]`` slices a
    snapshot holds never change.  Only a :class:`ColumnarStore` appends,
    under its lock.
    """

    __slots__ = ("buffers", "length")

    def __init__(self, width: int) -> None:
        self.buffers = tuple(np.empty(0, dtype=np.int64) for _ in range(width))
        self.length = 0

    def append(self, data: tuple, added: int) -> None:
        """Append ``added`` rows: one id vector per column."""
        end = self.length + added
        if self.buffers and end > len(self.buffers[0]):
            capacity = max(end, 2 * len(self.buffers[0]))
            grown = []
            for buffer in self.buffers:
                vector = np.empty(capacity, dtype=np.int64)
                vector[: self.length] = buffer[: self.length]
                grown.append(vector)
            self.buffers = tuple(grown)
        for buffer, vector in zip(self.buffers, data):
            buffer[self.length:end] = vector
        self.length = end


class _Resident:
    """One atom pattern's state in a store: the snapshot at the last
    version served, the selected id columns of a pattern with constants or
    repeated variables (``None`` for an identity pattern, which reads the
    table itself), and the memos its snapshots share."""

    __slots__ = ("shape", "version", "snapshot", "selected", "memos")

    def __init__(self, shape: tuple) -> None:
        self.shape = shape
        self.version = 0
        self.snapshot = None
        _, keep, constant_checks, equality_checks = shape
        self.selected = (
            _IdTable(len(keep)) if constant_checks or equality_checks else None
        )
        self.memos = (_BoundedMemo(), _BoundedMemo(), _BoundedMemo())


class ColumnarStore:
    """One database's interner, its id tables and its atom views.

    **Id tables.**  Each relation's stored rows are interned exactly once,
    in log order, under the store's lock, into one append-only
    :class:`_IdTable` per relation.  :meth:`DatabaseDelta.apply` extends
    them with a shipment's id columns, interning its dictionary once.

    **Snapshots.**  :meth:`view` serves an atom as an immutable
    :class:`ColumnarRelation` over its relation at the version it reads:
    its columns, length and memo reads describe exactly those rows, and a
    later append never changes it; the next call returns a new snapshot.
    An identity pattern (distinct variables, no constant) renames the
    table's ``[:n]`` slices without copying them.  A pattern with constants
    or repeated variables keeps its own append-only selected id columns,
    and each new version selects only the new table rows, comparing ids
    (a constant resolves through ``interner.id_of`` at every extension:
    one missing now can arrive later).  Snapshots below
    :data:`_VECTOR_MIN_ROWS` rows hold list copies, like the kernel's other
    small results.

    **Shared memos.**  The snapshots of one atom pattern share their hash
    buckets, key sets and sort orders (:class:`_Covering`): a reader tops
    them up with the appended rows, or merges them into a sort order, in
    O(delta); packed keys, projections and degree vectors are per snapshot.

    **Deltas.**  :meth:`delta` is the semi-naive refresh's delta side: the
    table rows between two versions, through the same id-level selection.

    The view cache is a :class:`~repro.engine.analysis.LRUCache` of
    :data:`VIEW_CACHE_SIZE` atom patterns whose hit/miss counters
    :meth:`info` reports.  The store is derived data:
    ``Database.__getstate__`` drops it.
    """

    def __init__(self) -> None:
        # Imported lazily: repro.engine depends on repro.cq, not vice versa;
        # by the time a store exists the engine package is importable.
        from repro.engine.analysis import LRUCache

        self.interner = ValueInterner()
        self.views = LRUCache(VIEW_CACHE_SIZE)
        self._lock = threading.Lock()
        #: Number of times a cached view advanced to a new version instead
        #: of being built (coverage guard for the incremental differential
        #: pass).
        self.extensions = 0
        #: relation name -> :class:`_IdTable`.
        self._tables: dict = {}

    def _table(self, relation, version: int) -> _IdTable:
        """The relation's id table, caught up to at least ``version`` by
        interning the log rows it lacks (call under the lock)."""
        table = self._tables.get(relation.name)
        if table is None:
            table = self._tables[relation.name] = _IdTable(relation.arity)
        if table.length < version:
            rows = relation.delta_since(table.length)[: version - table.length]
            intern = self.interner.intern
            table.append(
                tuple(
                    np.fromiter(map(intern, column), np.int64, len(rows))
                    for column in zip(*rows)
                ),
                len(rows),
            )
        return table

    def view(self, atom, relation) -> ColumnarRelation:
        """The snapshot of ``atom`` over ``relation`` at its current version."""
        if len(atom.terms) != relation.arity:
            # Only a relation without rows reaches here at another arity
            # (:meth:`~repro.cq.database.Database.atom_relation`): the atom
            # reads nothing, and the relation has no id table of its width.
            shape = atom_shape(atom)
            return self._relation(
                shape, tuple(np.empty(0, np.int64) for _ in shape[0]), 0
            )
        key = (atom.relation, atom.terms)
        with self._lock:
            version = relation.version
            resident = self.views.get(key)
            if resident is not None and resident.version == version:
                return resident.snapshot
            table = self._table(relation, version)
            if resident is None:
                resident = _Resident(atom_shape(atom))
            else:
                self.extensions += 1
            if resident.selected is None:
                data = tuple(table.buffers[i][:version] for i in resident.shape[1])
                length = version
            else:
                selected = resident.selected
                selected.append(
                    *self._select(table, resident.shape, resident.version, version)
                )
                data = tuple(vector[: selected.length] for vector in selected.buffers)
                length = selected.length
            resident.version = version
            resident.snapshot = self._relation(resident.shape, data, length)
            resident.snapshot._share(resident.memos, self._lock)
            self.views.put(key, resident)
            return resident.snapshot

    def delta(self, atom, relation, start: int, stop: int) -> ColumnarRelation:
        """The rows of ``relation`` appended between versions ``start`` and
        ``stop`` that match ``atom``'s pattern, read off the id table: the
        delta side the semi-naive refresh joins against the resident
        views."""
        shape = atom_shape(atom)
        with self._lock:
            table = self._table(relation, stop)
            return self._relation(shape, *self._select(table, shape, start, stop))

    def column_ids(self, relation, column: int, start: int, stop: int) -> np.ndarray:
        """The interned ids in ``column`` of ``relation``'s log rows
        ``[start, stop)``, read off its id table: what
        :meth:`~repro.cq.database.Database.partition` and the session's
        piece extension route rows by."""
        with self._lock:
            return self._table(relation, stop).buffers[column][start:stop]

    def _select(self, table: _IdTable, shape: tuple, start: int, stop: int) -> tuple:
        """``(kept id columns, rows)`` of the table rows ``[start, stop)``
        that match an :func:`~repro.cq.relational.atom_shape` pattern.  The
        kept projection is injective on them (dropped positions are
        constants or repeats of kept anchors), so stored rows' distinctness
        carries over without a dedup."""
        _, keep, constant_checks, equality_checks = shape
        window = [buffer[start:stop] for buffer in table.buffers]
        if not (constant_checks or equality_checks):
            return tuple(window[i] for i in keep), stop - start
        mask = np.ones(stop - start, dtype=bool)
        for index, value in constant_checks:
            ident = self.interner.id_of(value)
            if ident is None:
                # Not interned, so no stored row holds it (yet).
                mask[:] = False
                break
            mask &= window[index] == ident
        for index, anchor in equality_checks:
            mask &= window[index] == window[anchor]
        rows = np.flatnonzero(mask)
        return tuple(window[i][rows] for i in keep), len(rows)

    def _relation(self, shape: tuple, data: tuple, length: int) -> ColumnarRelation:
        if not shape[0]:
            # All-constant atom: the relational unit {()} or the zero {}.
            return ColumnarRelation._trusted((), self.interner, (), 1 if length else 0)
        data = _stored(data, length)
        for vector in data:
            if isinstance(vector, np.ndarray):
                # A view of an id table: a write would change every snapshot.
                vector.flags.writeable = False
        return ColumnarRelation._trusted(shape[0], self.interner, data, length)

    def info(self) -> dict:
        """The store's counters (``database.columnar_cache.info()``):
        view-cache hits/misses/size plus the interned dictionary size."""
        report = self.views.info()
        report["dictionary_size"] = len(self.interner)
        return report


# ----------------------------------------------------------------------
# Shipping: a database copy as the rows appended after a base version
# ----------------------------------------------------------------------
def _id_typecode(dictionary_size: int) -> str:
    """The narrowest unsigned ``array`` typecode holding every id
    ``0 <= id < dictionary_size`` — a shipment spends 1/2/4/8 bytes per
    cell instead of pickling each value occurrence."""
    if dictionary_size <= 1 << 8:
        return "B"
    if dictionary_size <= 1 << 16:
        return "H"
    if dictionary_size <= 1 << 32:
        return "I"
    return "Q"


class DeltaMismatchError(ValueError):
    """A :class:`DatabaseDelta` met a receiver that does not hold every
    relation at the delta's base version.  Nothing was appended; the sender
    ships the delta from version zero instead."""


class DatabaseDelta:
    """A database shipment: the rows each relation appended after a base
    version, as id columns over one dictionary.

    ``base`` is the whole base map the sender assumed (relation name ->
    version; a name it lacks is at version 0), so the delta from ``{}`` is
    a full copy (:meth:`~repro.cq.database.Database.to_wire`) and a later
    shipment to a resident copy carries only the rows it lacks.  Pickling a
    tuple-set database pays the per-object price on every cell; a delta
    stores each distinct value once (``dictionary``) and each relation's
    rows, in log order, as parallel id columns in the narrowest unsigned
    ``array`` typecode that holds the dictionary (one, two, four or eight
    bytes per cell), which pickle as flat byte buffers.
    """

    __slots__ = ("base", "relations", "dictionary")

    def __init__(self, base: dict, relations: dict, dictionary: list) -> None:
        #: relation name -> the version the receiver must hold it at.
        self.base = base
        #: relation name -> (arity, tuple of id-column arrays, rows), for
        #: every relation that grew past its base or that the base lacks.
        self.relations = relations
        #: id -> value decode table, duplicate-free (built by interning).
        self.dictionary = dictionary

    def __repr__(self) -> str:
        rows = sum(entry[2] for entry in self.relations.values())
        return (
            f"DatabaseDelta(base={len(self.base)}, "
            f"relations={len(self.relations)}, rows={rows}, "
            f"dictionary={len(self.dictionary)})"
        )

    def versions(self) -> dict:
        """The relation versions a receiver holds once :meth:`apply` has
        run: the base map, advanced by each relation's shipped rows."""
        versions = dict(self.base)
        for name, (_, _, rows) in self.relations.items():
            versions[name] = self.base.get(name, 0) + rows
        return versions

    def apply(self, database):
        """Append the delta to ``database`` and return it.

        Raises :class:`DeltaMismatchError`, before appending anything, when
        ``database`` does not hold every relation at its base version (0
        for a relation it lacks), and ``ValueError`` when a relation's arity
        differs from the shipped one.  The rows go through the versioned
        storage API; their id columns, remapped by interning the dictionary
        once into the database's columnar store, extend the relations' id
        tables, so the copy's next atom view interns nothing."""
        relations = database.relations
        for name in self.base.keys() | self.relations.keys():
            held = relations[name].version if name in relations else 0
            if held != self.base.get(name, 0):
                raise DeltaMismatchError(
                    f"relation {name!r} is at version {held}, "
                    f"the delta starts at {self.base.get(name, 0)}"
                )
        for name, (arity, _, _) in self.relations.items():
            if name in relations and relations[name].arity != arity:
                raise ValueError(
                    f"relation {name!r} has arity {relations[name].arity}, "
                    f"the delta ships arity {arity}"
                )
        values = self.dictionary
        store = database.columnar_store()
        with store._lock:
            ids = np.fromiter(
                map(store.interner.intern, values), np.int64, len(values)
            )
            for name, (arity, data, length) in self.relations.items():
                if name not in relations:
                    database.add_relation(Relation(name, arity))
                relation = relations[name]
                base = relation.version
                table = store._table(relation, base)
                decoded = [[values[ident] for ident in column] for column in data]
                for row in zip(*decoded) if arity else [()] * length:
                    relation.add(row)
                # A receiver whose rows differ from the sender's at the same
                # version may drop a row as a duplicate; its table then
                # catches up from the log instead.
                if relation.version == base + length:
                    table.append(
                        tuple(ids[np.asarray(column)] for column in data), length
                    )
        return database


def encode_delta(database, since: dict) -> DatabaseDelta:
    """Encode the rows of ``database`` appended after the versions in
    ``since`` (relation name -> version, e.g. what a worker's resident copy
    was last synced to) into a :class:`DatabaseDelta`.

    A relation absent from ``since`` ships whole, even when empty (the
    receiver creates it); one with no rows past its base ships only its
    base version.  ``encode_delta(database, {})`` is a full copy.
    """
    interner = ValueInterner()
    intern = interner.intern
    staged: dict = {}
    for name, relation in database.relations.items():
        rows = relation.delta_since(since.get(name, 0))
        if rows or name not in since:
            columns = list(zip(*rows)) or [()] * relation.arity
            staged[name] = (
                relation.arity,
                [[intern(value) for value in column] for column in columns],
                len(rows),
            )
    typecode = _id_typecode(len(interner))
    relations = {
        name: (arity, tuple(array(typecode, column) for column in columns), rows)
        for name, (arity, columns, rows) in staged.items()
    }
    return DatabaseDelta(dict(since), relations, interner.values)


# ----------------------------------------------------------------------
# Decomposition-guided evaluation over columnar trees
# ----------------------------------------------------------------------
def _push_bag_projections(pool: list, bag) -> list:
    """Projection pushdown for one bag's join pool.

    A column occurring in exactly one pool relation and outside the bag can
    never influence the bag relation (it is neither a join key nor an output
    column), so ``π_bag(R1 ⋈ … ⋈ Rn)`` equals the same expression with each
    ``Ri`` pre-projected onto ``(columns(Ri) ∩ bag) ∪ (columns(Ri) ∩
    columns(Rj), j ≠ i)``.  Pushing those projections below the join
    collapses the worst bag shapes — a cover pairing two *disjoint* edges
    used to materialise the full cross product (|R|² rows) before projecting
    it away; now the dangling side shrinks to its distinct key values first.
    """
    if len(pool) <= 1:
        return pool
    reduced = []
    for index, relation in enumerate(pool):
        elsewhere: set = set()
        for other_index, other in enumerate(pool):
            if other_index != index:
                elsewhere.update(other.columns)
        keep = tuple(
            c for c in relation.columns if c in bag or c in elsewhere
        )
        reduced.append(
            relation if len(keep) == len(relation.columns) else relation.project(keep)
        )
    return reduced


def _aligned(array: np.ndarray, columns: Sequence, target: Sequence) -> np.ndarray:
    """A view of ``array``, whose axes are named ``columns``, with those
    axes in ``target``'s order and a length-1 axis for each target column it
    lacks: it broadcasts against any array over ``target``."""
    rank = {c: i for i, c in enumerate(target)}
    order = sorted(range(len(columns)), key=lambda i: rank[columns[i]])
    present = set(columns)
    index = tuple(slice(None) if c in present else None for c in target)
    return array.transpose(order)[index] if index else array


class BagArray:
    """A bag relation held as a boolean array over interned ids.

    Axis ``i`` is column ``columns[i]``, and cell ``(a, b, ...)`` is set
    iff the row of ids ``(a, b, ...)`` is in the relation.  Every array of
    one bag tree gives a column the same axis size (:func:`_bag_axis_sizes`),
    so two bags broadcast against each other once their axes are aligned.
    It implements what the Yannakakis passes and the counting DP read of a
    relation: a semijoin masks by the other bag's marginal (its ``any``
    over the columns this bag lacks), a projection is an ``any``
    reduction, and the length a ``count_nonzero``.  A natural join runs on
    the row kernel over both sides' :meth:`rows`: the one point where the
    two forms meet.
    """

    __slots__ = ("columns", "interner", "array", "_positions")

    def __init__(self, columns: Sequence[Hashable], interner: ValueInterner, array) -> None:
        self.columns = tuple(columns)
        self.interner = interner
        # A 0-d operation returns a NumPy scalar: keep an array.
        self.array = np.asarray(array)
        self._positions = {c: i for i, c in enumerate(self.columns)}

    @classmethod
    def from_pool(cls, pool: list, bag, sizes: dict, interner: ValueInterner) -> "BagArray":
        """``π_bag(⋈ pool)``: the AND of the pool's arrays, broadcast over
        the pool's variables, ``any``-reduced onto those in ``bag``."""
        variables = tuple(dict.fromkeys(c for relation in pool for c in relation.columns))
        kept = tuple(c for c in variables if c in bag)
        axes = kept + tuple(c for c in variables if c not in bag)
        views = [
            _aligned(
                relation._bag_array(tuple(sizes[c] for c in relation.columns)),
                relation.columns, axes,
            )
            for relation in pool
        ]
        cells = np.empty([sizes[c] for c in axes], dtype=bool)
        cells[...] = views[0]
        for view in views[1:]:
            np.logical_and(cells, view, out=cells)
        if len(axes) > len(kept):
            cells = cells.any(axis=tuple(range(len(kept), len(axes))))
        cells.flags.writeable = False
        return cls(kept, interner, cells)

    def __len__(self) -> int:
        return int(np.count_nonzero(self.array))

    def __bool__(self) -> bool:
        return bool(self.array.any())

    def __repr__(self) -> str:
        return f"BagArray(columns={self.columns!r}, shape={self.array.shape})"

    column_index = ColumnarRelation.column_index

    def rows(self) -> ColumnarRelation:
        """The row form: the set cells' ids as columns (``np.nonzero``)."""
        if not self.columns:
            return ColumnarRelation._trusted((), self.interner, (), int(bool(self.array)))
        ids = np.nonzero(self.array)
        return ColumnarRelation._trusted(
            self.columns, self.interner, _stored(ids, len(ids[0])), len(ids[0])
        )

    def decode_rows(self) -> set[tuple]:
        return self.rows().decode_rows()

    def _marginal(self, other: "BagArray") -> np.ndarray:
        """``other``'s array reduced onto the columns it shares with this
        bag, aligned to this bag's axes."""
        drop = tuple(i for i, c in enumerate(other.columns) if c not in self._positions)
        shared = tuple(c for c in other.columns if c in self._positions)
        array = other.array.any(axis=drop) if drop else other.array
        return _aligned(array, shared, self.columns)

    def semijoin(self, other: "BagArray") -> "BagArray":
        return BagArray(self.columns, self.interner, self.array & self._marginal(other))

    def semijoin_inplace(self, other: "BagArray") -> "BagArray":
        self.array = np.asarray(self.array & self._marginal(other))
        return self

    def project(self, columns: Sequence[Hashable]) -> "BagArray":
        columns = tuple(columns)
        if columns == self.columns:
            return self
        if len(set(columns)) != len(columns):
            raise ValueError(f"duplicate column names: {columns!r}")
        positions = {self.column_index(c) for c in columns}
        drop = tuple(i for i in range(len(self.columns)) if i not in positions)
        array = self.array.any(axis=drop) if drop else self.array
        kept = [c for c in self.columns if c in columns]
        return BagArray(
            columns, self.interner, array.transpose([kept.index(c) for c in columns])
        )

    def natural_join(self, other) -> ColumnarRelation:
        return self.rows().natural_join(other)


def _bag_axis_sizes(views, pools: dict) -> dict | None:
    """Each variable's axis size when a bag tree goes dense, else ``None``.

    Decided once per tree, before any join runs, and cheapest test first:
    the query's largest atom view holds at least :data:`_VECTOR_MIN_ROWS`
    rows; every relation of every pushed-down pool is dense by the rule of
    :func:`_dense_size` (its array, one axis per column sized from the
    largest id the column holds, has at most :data:`_DENSE_FACTOR` cells
    per row); and every pool's array, over its variables, has at most
    :data:`_BAG_ARRAY_CELLS` cells.  The pool relations are tested smallest
    first: a small relation over a wide id range fails at the cost of a
    few rows, before any large relation is scanned.  A variable's axis
    size is its largest id bound in any pool relation.
    """
    if max(map(len, views), default=0) < _VECTOR_MIN_ROWS or not all(pools.values()):
        return None
    sizes: dict = {}
    for relation in sorted((r for pool in pools.values() for r in pool), key=len):
        bounds = relation._id_bounds()
        if math.prod(bounds) > _DENSE_FACTOR * len(relation):
            return None
        for column, bound in zip(relation.columns, bounds):
            sizes[column] = max(bound, sizes.get(column, 0))
    for pool in pools.values():
        variables = {c for relation in pool for c in relation.columns}
        if math.prod(sizes[c] for c in variables) > _BAG_ARRAY_CELLS:
            return None
    return sizes


def build_columnar_bag_tree(
    query: ConjunctiveQuery, database, ghd
) -> JoinTree:
    """Bag materialisation along the decomposition with columnar relations.

    Each bag joins every atom of its cover's scopes and every atom
    assigned to it (:mod:`repro.cq.bags`, which explains the duplicate-scope
    rule) with :func:`~repro.cq.relational.natural_join_all`, and projects
    onto the bag.  Every relation is the database's memoized
    :meth:`~repro.cq.database.Database.columnar_view`, and single-use
    out-of-bag columns are projected away *below* the joins
    (:func:`_push_bag_projections`), which the final ``π_bag`` makes
    semantically invisible.  The store is read once, so every view and the
    interner come from one store even if ``drop_columnar`` runs meanwhile.
    Every pool is gathered before any join runs, so the whole tree takes
    one form: :class:`BagArray` bags when :func:`_bag_axis_sizes` finds
    them dense, joined rows otherwise.
    """
    scope_atoms = atoms_by_scope(query)
    assignment = assign_atoms_to_nodes(query, ghd)
    store = database.columnar_store()
    interner = store.interner
    materialised: dict = {}

    def relation_for(atom) -> ColumnarRelation:
        if atom not in materialised:
            materialised[atom] = database.columnar_view(atom, store)
        return materialised[atom]

    pools: dict = {}
    for node, bag in ghd.bags.items():
        atoms: list = []
        for cover_edge in sorted(ghd.covers[node], key=lambda e: sorted(map(repr, e))):
            for atom in scope_atoms.get(frozenset(cover_edge), ()):
                if atom not in atoms:
                    atoms.append(atom)
        for atom in assignment[node]:
            if atom not in atoms:
                atoms.append(atom)
        pools[node] = _push_bag_projections(
            [relation_for(atom) for atom in atoms], bag
        )
    sizes = _bag_axis_sizes(materialised.values(), pools)
    bag_relations: dict = {}
    for node, bag in ghd.bags.items():
        pool = pools[node]
        if sizes is not None:
            bag_relations[node] = BagArray.from_pool(pool, bag, sizes, interner)
        elif pool:
            joined = natural_join_all(pool)
            keep = [c for c in joined.columns if c in bag]
            bag_relations[node] = joined.project(keep)
        elif bag:
            bag_relations[node] = ColumnarRelation(
                tuple(sorted(bag, key=repr)), interner,
                tuple([] for _ in bag), 0,
            )
        else:
            bag_relations[node] = ColumnarRelation((), interner, (), 1)
    return JoinTree(bag_relations, root_tree(ghd, query))


class _Int64Overflow(ArithmeticError):
    """A count-DP weight could leave int64 on the NumPy path."""


def _weights_array(weights) -> np.ndarray:
    """A node's weights as int64: a list of Python ints (checked to fit)
    or an int64 array."""
    if isinstance(weights, np.ndarray):
        return weights
    if weights and max(weights) > _INT64_MAX:
        raise _Int64Overflow
    return np.array(weights, dtype=np.int64)


def _fits(weights: np.ndarray, factor: int) -> bool:
    """Whether ``max(weights) * factor`` fits int64 — the bound on any sum
    of ``factor`` of these (non-negative) weights, or on any product of
    one of them with a value at most ``factor``."""
    return not weights.size or int(weights.max()) * factor <= _INT64_MAX


def _count_bag_arrays(tree: JoinTree) -> int:
    """The counting DP over bag arrays, as sum-products.

    A bag's weight array starts as its boolean array; per child, the
    child's weights are summed over its axes outside the bag and
    broadcast-multiplied in, so a cell's weight counts the solutions of
    its subtree that extend it.  Every sum and every product is checked
    against int64 first (:func:`_fits`), as in the row DP."""
    weights: dict = {}
    for node in reversed(tree.topological_order()):
        bag = tree.relations[node]
        node_weights = bag.array
        for child in tree.children[node]:
            child_bag = tree.relations[child]
            sums = weights.pop(child)
            drop = tuple(
                i for i, c in enumerate(child_bag.columns) if c not in bag._positions
            )
            if drop:
                if not _fits(sums, math.prod(sums.shape[i] for i in drop)):
                    raise _Int64Overflow
                sums = sums.sum(axis=drop, dtype=np.int64)
            if not _fits(node_weights, int(sums.max()) if sums.size else 0):
                raise _Int64Overflow
            shared = tuple(c for c in child_bag.columns if c in bag._positions)
            node_weights = node_weights * _aligned(sums, shared, bag.columns)
        weights[node] = node_weights
    root = weights[tree.root]
    if _fits(root, root.size):
        return int(root.sum(dtype=np.int64))
    return int(root.sum(dtype=object))


def _vector_child_sums(relation, child_relation, shared, child_weights, base):
    """For each row of ``relation``, the summed weight of the compatible
    rows of ``child_relation``.  Over a dense key domain
    (:func:`_dense_size`) one ``np.add.at`` sums the child's weights into
    an int64 table indexed by key, and one gather reads it at the parent's
    keys.  Otherwise sorted segment sums over the child's keys
    (``np.add.reduceat``) map onto the parent's sorted keys with
    ``searchsorted``.  The overflow check comes first: no sum of these
    weights can leave int64 once it passes."""
    weights = _weights_array(child_weights)
    if not _fits(weights, len(weights)):
        raise _Int64Overflow
    if not shared:
        return np.full(len(relation), int(weights.sum()), dtype=np.int64)
    keys = relation._vector_keys(shared, base)
    child_keys = child_relation._vector_keys(shared, base)
    if keys is None or child_keys is None:
        raise _Int64Overflow
    size = _dense_size(keys, child_keys)
    if size is not None:
        table = np.zeros(size, dtype=np.int64)
        np.add.at(table, child_keys, weights)
        return table[keys]
    parent = relation._sorted_keys(shared, base)
    child = child_relation._sorted_keys(shared, base)
    sums = np.zeros(len(relation), dtype=np.int64)
    child_order, child_keys = child
    if not len(child_keys):
        return sums
    starts = np.flatnonzero(
        np.concatenate(([True], child_keys[1:] != child_keys[:-1]))
    )
    unique = child_keys[starts]
    grouped = np.add.reduceat(weights[child_order], starts)
    parent_order, parent_keys = parent
    slots = np.minimum(np.searchsorted(unique, parent_keys), len(unique) - 1)
    sums[parent_order] = np.where(unique[slots] == parent_keys, grouped[slots], 0)
    return sums


def _count_join_tree(tree: JoinTree, vectorise: bool) -> int:
    if isinstance(tree.relations[tree.root], BagArray):
        return _count_bag_arrays(tree)
    weights: dict = {}
    order = tree.topological_order()
    for node in reversed(order):
        relation = tree.relations[node]
        vector = vectorise and len(relation) >= _VECTOR_MIN_ROWS
        if vector:
            node_weights = np.ones(len(relation), dtype=np.int64)
        else:
            node_weights = [1] * len(relation)
        for child in tree.children[node]:
            child_relation = tree.relations[child]
            shared = [
                c for c in relation.columns if c in child_relation._positions
            ]
            base = len(relation.interner)
            if vector:
                sums = _vector_child_sums(
                    relation, child_relation, shared, weights[child], base
                )
                if not _fits(node_weights, int(sums.max()) if sums.size else 0):
                    raise _Int64Overflow
                node_weights = node_weights * sums
                continue
            grouped: dict = {}
            get = grouped.get
            for key, weight in zip(
                child_relation._keys(shared, base), _ints(weights[child])
            ):
                grouped[key] = get(key, 0) + weight
            node_weights = [
                w * grouped.get(k, 0)
                for w, k in zip(node_weights, relation._keys(shared, base))
            ]
        weights[node] = node_weights
    root = weights[tree.root]
    if isinstance(root, np.ndarray):
        if _fits(root, len(root)):
            return int(root.sum())
        root = root.tolist()
    return sum(root)


def columnar_count_join_tree(tree: JoinTree) -> int:
    """The join-tree counting DP over columnar relations — fully
    factorized: weights are per-row int vectors, child weights group by
    packed key, and no result row is ever materialized.

    The recurrence of Proposition 4.14 (Pichler and Skritek), exact on a
    join tree by running intersection: a row's weight is the product over
    children of the summed weights of compatible child rows; the answer
    count is the summed weight at the root.  A node of at least
    :data:`_VECTOR_MIN_ROWS` rows runs on int64 arrays, and a tree of
    :class:`BagArray` bags on their cells (:func:`_count_bag_arrays`); if a
    packed key or a weight could leave int64 (checked before every sum and
    product), the whole DP reruns on exact Python ints, over the bags'
    rows.
    """
    try:
        return _count_join_tree(tree, vectorise=True)
    except _Int64Overflow:
        if isinstance(tree.relations[tree.root], BagArray):
            tree = JoinTree(
                {node: bag.rows() for node, bag in tree.relations.items()},
                tree.parent,
            )
        return _count_join_tree(tree, vectorise=False)


def _checked_tree(query: ConjunctiveQuery, database, ghd) -> JoinTree:
    if ghd is None:
        raise DecompositionMismatchError(
            "columnar evaluation requires a decomposition"
        )
    return build_columnar_bag_tree(query, database, ghd)


def columnar_boolean_answer(query: ConjunctiveQuery, database, ghd) -> bool:
    """BCQ through a GHD, columnar-side (Proposition 2.2 upper bound)."""
    if not query.atoms:
        return True
    return yannakakis_boolean(_checked_tree(query, database, ghd))


def columnar_enumerate_answers(
    query: ConjunctiveQuery, database, ghd
) -> set[tuple]:
    """``q(D)`` through a GHD: columnar Yannakakis, ids decoded exactly once
    at the boundary."""
    if not query.atoms:
        return {()}
    tree = _checked_tree(query, database, ghd)
    if not query.free_variables:
        return {()} if yannakakis_boolean(tree) else set()
    result = yannakakis_full(tree, output_columns=query.free_variables)
    return result.decode_rows()


def columnar_count_answers(query: ConjunctiveQuery, database, ghd) -> int:
    """#CQ for **full** CQs through a GHD via the factorized columnar DP —
    no result row is materialized (Proposition 4.14)."""
    if not query.is_full():
        raise ValueError("decomposition-based counting requires a full CQ")
    if not query.atoms:
        return 1
    return columnar_count_join_tree(_checked_tree(query, database, ghd))
