"""A zero-copy, hash-indexed relational-algebra kernel over named columns.

The decomposition-guided evaluators (Yannakakis, GHD evaluation, counting)
work on *named relations*: a :class:`NamedRelation` is a set of rows over an
ordered tuple of column names (query variables).  Joins and semijoins are
hash-based, so a single join costs time proportional to the sizes of the
inputs plus the output — which is what makes the Proposition 2.2 upper bound
(polynomial-time BCQ for bounded ghw) come out in the experiments.

Three engineering rules keep the constant factors down:

* **cached column positions** — ``column_index`` is a dict lookup, never a
  ``tuple.index`` scan;
* **memoized key indexes** — the hash index a join or semijoin builds over a
  key-column set is cached on the relation and reused by every later
  operation over the same key (the Yannakakis passes hit the same parent
  relation once per child); any mutation invalidates the caches;
* **zero-copy results** — operations that cannot change the row set
  (projection onto all columns, a semijoin that filters nothing, a rename)
  return ``self`` or share the underlying row set instead of copying it.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable, Sequence

# ``estimate_semijoin_fraction`` is unused here but stays bound by name:
# perfbench/tracing.py wraps the estimators in this module's namespace.
from repro.cq.statistics import (  # noqa: F401
    ORDERING_COST,
    estimate_join_rows,
    estimate_semijoin_fraction,
    join_ordering,
    record_cost_join,
    record_static_join,
)

Value = Hashable

_ALL_ROWS = object()  # sentinel index key for the trivial (no-column) key

class NamedRelation:
    """An in-memory relation with named columns."""

    __slots__ = ("columns", "rows", "_positions", "_indexes")

    def __init__(self, columns: Sequence[Hashable], rows: Iterable[tuple] = ()) -> None:
        self.columns: tuple = tuple(columns)
        self._positions: dict = {c: i for i, c in enumerate(self.columns)}
        if len(self._positions) != len(self.columns):
            raise ValueError(f"duplicate column names: {self.columns!r}")
        self.rows: set[tuple] = set()
        self._indexes: dict = {}
        width = len(self.columns)
        for row in rows:
            row = tuple(row)
            if len(row) != width:
                raise ValueError(f"row {row!r} does not match columns {self.columns!r}")
            self.rows.add(row)

    @classmethod
    def _trusted(cls, columns: tuple, rows: set) -> "NamedRelation":
        """Internal constructor: adopt an already-validated row set without
        re-checking widths (and without copying)."""
        relation = object.__new__(cls)
        relation.columns = columns
        relation._positions = {c: i for i, c in enumerate(columns)}
        relation.rows = rows
        relation._indexes = {}
        return relation

    def __getstate__(self):
        # Serialization contract (process-runtime workers): ship columns and
        # raw rows only.  The memoized key indexes are derived data — often
        # larger than the rows themselves — and are rebuilt on the receiving
        # side on first use, against whatever operations actually run there.
        return (self.columns, self.rows)

    def __setstate__(self, state) -> None:
        columns, rows = state
        self.columns = columns
        self._positions = {c: i for i, c in enumerate(columns)}
        self.rows = rows
        self._indexes = {}

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)

    def __bool__(self) -> bool:
        return bool(self.rows)

    def __eq__(self, other: object) -> bool:
        if other is self:
            return True
        if not isinstance(other, NamedRelation):
            return NotImplemented
        if self.columns == other.columns:
            # Identical column tuples: compare row sets directly, with an
            # identity short-circuit first — zero-copy operations (an
            # unfiltering semijoin, a no-op projection, a rename) share the
            # rows object, so no set comparison is needed at all.
            return self.rows is other.rows or self.rows == other.rows
        if set(self.columns) != set(other.columns):
            return False
        if len(self.rows) != len(other.rows):
            return False
        # Column-permutation index mapping: remap each row of ``other`` into
        # this relation's column order and test membership — no materialised
        # projections.
        mapping = tuple(other._positions[c] for c in self.columns)
        return all(
            tuple(row[i] for i in mapping) in self.rows for row in other.rows
        )

    def __repr__(self) -> str:
        return f"NamedRelation(columns={self.columns!r}, rows={len(self.rows)})"

    def column_index(self, column: Hashable) -> int:
        try:
            return self._positions[column]
        except KeyError:
            raise ValueError(f"{column!r} is not a column of {self.columns!r}") from None

    # ------------------------------------------------------------------
    # Key indexes (memoized)
    # ------------------------------------------------------------------
    def key_index(self, columns: Sequence[Hashable]) -> dict:
        """The hash index ``key tuple -> tuple of rows`` over the given key
        columns, built once and cached until the relation is mutated."""
        positions = tuple(self._positions[c] for c in columns)
        cache_key = positions if positions else _ALL_ROWS
        index = self._indexes.get(cache_key)
        if index is None:
            index = {}
            for row in self.rows:
                index.setdefault(tuple(row[i] for i in positions), []).append(row)
            self._indexes[cache_key] = index
        return index

    def invalidate_indexes(self) -> None:
        """Drop the memoized key indexes (call after any direct mutation of
        ``rows``; the in-place operations below do it automatically)."""
        self._indexes.clear()

    @property
    def cached_index_keys(self) -> tuple:
        """The key-column position tuples currently memoized (for tests)."""
        return tuple(k for k in self._indexes if k is not _ALL_ROWS)

    # ------------------------------------------------------------------
    def project(self, columns: Sequence[Hashable]) -> "NamedRelation":
        """Projection onto the given columns (duplicates collapse)."""
        columns = tuple(columns)
        if columns == self.columns:
            return self
        if len(set(columns)) != len(columns):
            raise ValueError(f"duplicate column names: {columns!r}")
        indexes = [self.column_index(c) for c in columns]
        projected = {tuple(row[i] for i in indexes) for row in self.rows}
        return NamedRelation._trusted(columns, projected)

    def select_equal(self, column: Hashable, value: Value) -> "NamedRelation":
        index = self.column_index(column)
        return NamedRelation._trusted(
            self.columns, {row for row in self.rows if row[index] == value}
        )

    def rename(self, mapping: dict) -> "NamedRelation":
        new_columns = tuple(mapping.get(c, c) for c in self.columns)
        if len(set(new_columns)) != len(new_columns):
            raise ValueError(f"duplicate column names: {new_columns!r}")
        if new_columns == self.columns:
            return self
        # Rows are shared (never mutated through a renamed view): in-place
        # operations rebind ``rows`` to a fresh set instead of mutating it.
        return NamedRelation._trusted(new_columns, self.rows)

    # ------------------------------------------------------------------
    def natural_join(self, other: "NamedRelation") -> "NamedRelation":
        """Hash-based natural join on the shared columns (reusing the cached
        key index of ``other`` when one exists)."""
        shared = [c for c in self.columns if c in other._positions]
        other_only = [c for c in other.columns if c not in self._positions]
        result_columns = self.columns + tuple(other_only)
        if not shared:
            other_only_indexes = [other._positions[c] for c in other_only]
            rows = {
                left + tuple(right[i] for i in other_only_indexes)
                for left in self.rows
                for right in other.rows
            }
            return NamedRelation._trusted(result_columns, rows)
        left_key_indexes = [self._positions[c] for c in shared]
        other_only_indexes = [other._positions[c] for c in other_only]
        buckets = other.key_index(shared)
        rows = set()
        for left in self.rows:
            key = tuple(left[i] for i in left_key_indexes)
            for right in buckets.get(key, ()):
                rows.add(left + tuple(right[i] for i in other_only_indexes))
        return NamedRelation._trusted(result_columns, rows)

    def semijoin(self, other: "NamedRelation") -> "NamedRelation":
        """Keep the rows of ``self`` that join with at least one row of
        ``other`` (the Yannakakis filtering primitive).  Returns ``self``
        unchanged (no copy) when nothing is filtered out."""
        rows = self._semijoin_rows(other)
        if rows is self.rows:
            return self
        return NamedRelation._trusted(self.columns, rows)

    def semijoin_inplace(self, other: "NamedRelation") -> "NamedRelation":
        """Like :meth:`semijoin` but updates this relation, invalidating its
        cached indexes only when rows were actually removed.  Returns ``self``
        for chaining."""
        rows = self._semijoin_rows(other)
        if rows is not self.rows:
            self.rows = rows
            self.invalidate_indexes()
        return self

    def _semijoin_rows(self, other: "NamedRelation") -> set:
        """The surviving row set of a semijoin; returns ``self.rows`` (the
        very object) when every row survives."""
        shared = [c for c in self.columns if c in other._positions]
        if not shared:
            return self.rows if other.rows else set()
        left_key_indexes = [self._positions[c] for c in shared]
        right_keys = other.key_index(shared)
        rows = {
            row for row in self.rows
            if tuple(row[i] for i in left_key_indexes) in right_keys
        }
        if len(rows) == len(self.rows):
            return self.rows
        return rows

    def cross_product(self, other: "NamedRelation") -> "NamedRelation":
        if set(self.columns) & set(other.columns):
            raise ValueError("cross product requires disjoint columns")
        return self.natural_join(other)


def natural_join_all(
    relations: Sequence[NamedRelation], trace: list | None = None
) -> NamedRelation:
    """Multi-way natural join, cost-ordered where ordering has leverage.

    **Static order** (the historical behaviour, and still the path for pools
    of two — where there is no ordering decision to make): greedy
    overlap-first pair selection.  At every step the pool pair sharing the
    **most columns** is joined (ties broken by the smaller combined
    cardinality) and the intermediate result re-enters the pool; cross
    products are a last resort, taken only when no two relations share a
    column.  Preferring overlap over raw size matters twice: a pair agreeing
    on two columns is quadratically more selective than a pair agreeing on
    one (hub-and-spoke bags: joining two spokes on the hub alone
    materialises ~``n^2/d`` rows where the two-column pair stays
    near-linear), and the *primary* criterion is pure column structure — so
    wherever the maximum overlap is unique, hash-sharded execution picks the
    same join shape in every shard as the unsharded plan does, and per-shard
    intermediates partition the unsharded ones.  (Pure cardinality-based
    selection used to flip the one-column/two-column choice on per-shard
    size jitter, blowing intermediates up by the domain factor.)

    **Cost-based order** (the default mode, for columnar pools of three or
    more): pick the overlapping pair with the smallest *estimated* output
    (:func:`~repro.cq.statistics.estimate_join_rows`, which is exact on one
    shared column: the dot product of the two columns' degree vectors).
    The structure-only static heuristic is exactly what Zipfian data
    defeats, since "most shared columns" says nothing about a hub value
    carrying a third of a column's mass.  Ties in the estimate fall back to
    the static criteria (more shared columns, then smaller combined size).
    Every decision records its estimate against the actual output in the
    calling engine call's join record (`EvalResult.timings["stats"]`).
    Tuple-set relations keep no degree vectors, so tuple-set pools
    (reference code) always take the static order.

    Both kernels flow through this one function; ``trace``, when given,
    receives the intermediate result size after each pairwise join (the
    regression harness compares orders with it).
    """
    pool = list(relations)
    if not pool:
        raise ValueError("natural_join_all requires at least one relation")
    cost_mode = (
        len(pool) >= 3
        and join_ordering() == ORDERING_COST
        and hasattr(pool[0], "degrees")
    )
    while len(pool) > 1:
        if cost_mode:
            joined = _cost_join_step(pool)
        else:
            joined = _static_join_step(pool)
        pool.append(joined)
        if trace is not None:
            trace.append(len(joined))
    return pool[0]


def _static_join_step(pool: list) -> NamedRelation:
    """One overlap-greedy join step: pop the chosen pair, return the join."""
    pool.sort(key=len)
    pair = None
    best = None
    for i in range(len(pool)):
        columns_i = set(pool[i].columns)
        for j in range(i + 1, len(pool)):
            shared = len(columns_i & set(pool[j].columns))
            if not shared:
                continue
            score = (shared, -(len(pool[i]) + len(pool[j])))
            if best is None or score > best:
                best = score
                pair = (i, j)
    if pair is None:
        pair = (0, 1)
    i, j = pair
    right = pool.pop(j)
    left = pool.pop(i)
    record_static_join()
    return left.natural_join(right)


def _cost_join_step(pool: list):
    """One cost-based join step: pop the pair with the smallest estimated
    output and join it.

    Estimation only runs where there is a decision to make: with a single
    overlapping pair (the final step of every multi-way join, and forced
    chain tails) the estimates cannot change the outcome, so the step joins
    directly and records as static.
    """
    pool.sort(key=len)
    candidates = []
    for i in range(len(pool)):
        set_i = set(pool[i].columns)
        for j in range(i + 1, len(pool)):
            shared = [c for c in pool[j].columns if c in set_i]
            if shared:
                candidates.append((i, j, shared))
    if not candidates:
        # Cross product fallback: the two smallest relations (pool sorted).
        right = pool.pop(1)
        left = pool.pop(0)
        record_static_join()
        return left.natural_join(right)
    if len(candidates) == 1:
        i, j, _ = candidates[0]
        right = pool.pop(j)
        left = pool.pop(i)
        record_static_join()
        return left.natural_join(right)
    pair = None
    best = None
    for i, j, shared in candidates:
        estimate = estimate_join_rows(pool[i], pool[j], shared)
        # Estimate first; static criteria (overlap, combined size) break
        # genuine ties so uniform data keeps the historical join shape.
        score = (estimate, -len(shared), len(pool[i]) + len(pool[j]))
        if best is None or score < best:
            best = score
            pair = (i, j, estimate)
    i, j, estimate = pair
    right = pool.pop(j)
    left = pool.pop(i)
    joined = left.natural_join(right)
    record_cost_join(estimate, len(joined))
    return joined


def atom_shape(atom) -> tuple:
    """The selection/projection recipe an atom induces on its relation:
    ``(columns, keep_indexes, constant_checks, equality_checks)``.

    Shared by the tuple-set atom views (:func:`from_atom`) and the columnar
    store's id-level selection, which serves both its atom views and the
    semi-naive refresh's deltas, so every consumer filters rows through
    exactly the same recipe.
    """
    from repro.cq.query import Constant

    columns: list = []
    keep_indexes: list[int] = []
    constant_checks: list[tuple[int, object]] = []
    equality_checks: list[tuple[int, int]] = []
    first_position: dict = {}
    for index, term in enumerate(atom.terms):
        if isinstance(term, Constant):
            constant_checks.append((index, term.value))
        elif term in first_position:
            equality_checks.append((index, first_position[term]))
        else:
            first_position[term] = index
            keep_indexes.append(index)
            columns.append(term)
    return (
        tuple(columns),
        tuple(keep_indexes),
        tuple(constant_checks),
        tuple(equality_checks),
    )


def from_atom(atom, database) -> NamedRelation:
    """The named relation induced by a query atom over a database.

    Handles constants (selection) and repeated variables (equality selection)
    so the rest of the evaluators can assume clean named columns.  All
    selections and the projection run in a single pass over the stored rows.
    """
    columns, keep_indexes, constant_checks, equality_checks = atom_shape(atom)
    rows = set()
    for row in database.relation(atom.relation).tuples:
        if any(row[i] != value for i, value in constant_checks):
            continue
        if any(row[i] != row[anchor] for i, anchor in equality_checks):
            continue
        rows.add(tuple(row[i] for i in keep_indexes))
    return NamedRelation._trusted(columns, rows)
