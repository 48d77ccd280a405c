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

from repro.cq.statistics import (
    ORDERING_COST,
    RelationStatistics,
    compose_join_statistics,
    estimate_join_rows,
    estimate_semijoin_fraction,
    join_ordering,
    record_cost_join,
    record_prefilter,
    record_static_join,
)

Value = Hashable

_ALL_ROWS = object()  # sentinel index key for the trivial (no-column) key

#: A pre-join semijoin filter is only worth its pass when the estimated
#: surviving fraction is at most this, over a relation at least this large.
#: The gate is deliberately strict: uniform workloads estimate ~0.7 and the
#: filter pass there costs more than the dropped rows save, while skewed
#: workloads — where the filter is decisive — estimate near zero.
_PREFILTER_MAX_FRACTION = 0.5
_PREFILTER_MIN_ROWS = 32

#: Join outputs at least this large adopt *composed* statistics (cardinality
#: propagation from the input sketches) instead of being re-scanned by the
#: next ordering decision.  The sketch build costs a few microseconds per
#: row-value, so even a ~300-row intermediate pays milliseconds per call;
#: composition is O(sketch capacity) per column regardless of rows.
_DERIVED_STATS_MIN_ROWS = 64


class NamedRelation:
    """An in-memory relation with named columns."""

    __slots__ = ("columns", "rows", "_positions", "_indexes", "_stats")

    def __init__(self, columns: Sequence[Hashable], rows: Iterable[tuple] = ()) -> None:
        self.columns: tuple = tuple(columns)
        self._positions: dict = {c: i for i, c in enumerate(self.columns)}
        if len(self._positions) != len(self.columns):
            raise ValueError(f"duplicate column names: {self.columns!r}")
        self.rows: set[tuple] = set()
        self._indexes: dict = {}
        self._stats = None
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
        relation._stats = None
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
        self._stats = None

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
        """Drop the memoized key indexes and statistics (call after any
        direct mutation of ``rows``; the in-place operations below do it
        automatically)."""
        self._indexes.clear()
        self._stats = None

    def extend_rows(self, new_rows: Iterable[tuple]) -> int:
        """Append rows in place, *patching* every memoized key index instead
        of dropping it: each genuinely new row is appended to its hash bucket
        in every cached index, so a resident view stays warm across appends.
        Duplicates are skipped (set semantics — a bucket must never hold the
        same row twice).  Returns the number of rows actually added.

        Only long-lived owners (the atom-view cache) may call this: it
        mutates ``rows`` in place, so it must never run on a relation whose
        row set is shared with derived per-evaluation relations that are
        still alive.
        """
        added = 0
        stats = self._stats
        for row in new_rows:
            if row in self.rows:
                continue
            self.rows.add(row)
            added += 1
            for cache_key, index in self._indexes.items():
                positions = () if cache_key is _ALL_ROWS else cache_key
                index.setdefault(tuple(row[i] for i in positions), []).append(row)
            if stats is not None:
                stats.extend_rows((row,))
        return added

    def statistics(self) -> RelationStatistics:
        """Per-column sketches of this relation, built once and memoized
        until a mutation; appends through :meth:`extend_rows` fold the new
        rows into the existing sketches instead of rebuilding."""
        stats = self._stats
        if stats is None:
            stats = RelationStatistics.from_rows(self.columns, self.rows)
            self._stats = stats
        return stats

    def adopt_statistics(self, stats: RelationStatistics) -> None:
        """Install externally composed statistics (cardinality propagation
        for large join outputs) so :meth:`statistics` never scans the rows.
        Any later mutation invalidates them like a built sketch."""
        self._stats = stats

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

    **Cost-based order** (the default mode, for pools of three or more):
    pick the overlapping pair with the smallest *estimated* output, using
    the per-column sketches (:meth:`NamedRelation.statistics`) and the
    heavy-hitter-corrected independence estimate — the structure-only
    static heuristic is exactly what Zipfian data defeats, since "most
    shared columns" says nothing about a hub value carrying a third of a
    column's mass.  Ties in the estimate fall back to the static criteria
    (more shared columns, then smaller combined size), so uniform data
    where the estimates genuinely tie keeps the historical shape.  Before
    the chosen join runs, a **sideways-information-passing** step semijoins
    each input against the other when the sketches predict a meaningful
    reduction — the compact key-set filter trims the probe side before any
    bucket is built, the predicate-transfer/Bloom-join move.  Every
    decision records its estimate against the actual output in the
    process-wide statistics ledger (`EvalResult.timings["stats"]`).

    Both kernels (tuple-set and columnar) flow through this one function;
    ``trace``, when given, receives the intermediate result size after each
    pairwise join (the regression harness compares orders with it).
    """
    pool = list(relations)
    if not pool:
        raise ValueError("natural_join_all requires at least one relation")
    cost_mode = len(pool) >= 3 and join_ordering() == ORDERING_COST
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


def _cost_join_step(pool: list) -> NamedRelation:
    """One cost-based join step: pop the pair with the smallest estimated
    output (sketch-driven), optionally semijoin-prefilter the inputs, join.

    Estimation only runs where there is a decision to make: with a single
    overlapping pair (the final step of every multi-way join, and forced
    chain tails) the sketches cannot change the outcome, so the step joins
    directly and records as static — that keeps the cost mode's overhead on
    uniform data down to the steps where ordering has leverage.
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
    stats = [relation.statistics() for relation in pool]
    pair = None
    best = None
    for i, j, shared in candidates:
        estimate = estimate_join_rows(stats[i], stats[j], shared)
        # Estimate first; static criteria (overlap, combined size) break
        # genuine ties so uniform data keeps the historical join shape.
        score = (estimate, -len(shared), len(pool[i]) + len(pool[j]))
        if best is None or score < best:
            best = score
            pair = (i, j, shared, estimate)
    i, j, shared, estimate = pair
    left_stats = stats[i]
    right_stats = stats[j]
    right = pool.pop(j)
    left = pool.pop(i)
    left = _sip_prefilter(left, right, left_stats, right_stats)
    right = _sip_prefilter(right, left, right_stats, left_stats)
    joined = left.natural_join(right)
    record_cost_join(estimate, len(joined))
    if len(joined) >= _DERIVED_STATS_MIN_ROWS:
        # Large intermediates never get scanned for sketches: compose the
        # output statistics from the input sketches instead.  Prefilters may
        # have shrunk the inputs since the sketches were built, so the
        # composition errs toward overestimating — safe for ordering.
        joined.adopt_statistics(
            compose_join_statistics(
                left_stats, right_stats, shared, joined.columns, len(joined)
            )
        )
    return joined


def _sip_prefilter(target, source, target_stats=None, source_stats=None):
    """Sideways information passing: semijoin ``target`` against ``source``
    before the join when the sketches predict a worthwhile reduction.  The
    semijoin probes ``source``'s memoized key-set/index, so surviving rows
    reach the join's bucket build pre-trimmed; a filter that removes nothing
    returns ``target`` unchanged (zero-copy).

    Callers that already hold the relations' sketches pass them in so a
    freshly filtered relation (whose own sketches would need a scan) can be
    estimated from its pre-filter statistics — an overestimate of its key
    set, which only makes the gate more conservative."""
    if len(target) < _PREFILTER_MIN_ROWS:
        return target
    shared = [c for c in target.columns if c in set(source.columns)]
    if not shared:
        return target
    fraction = estimate_semijoin_fraction(
        target_stats if target_stats is not None else target.statistics(),
        source_stats if source_stats is not None else source.statistics(),
        shared,
    )
    if fraction > _PREFILTER_MAX_FRACTION:
        return target
    before = len(target)
    filtered = target.semijoin(source)
    record_prefilter(before - len(filtered))
    return filtered


def atom_shape(atom) -> tuple:
    """The selection/projection recipe an atom induces on its relation:
    ``(columns, keep_indexes, constant_checks, equality_checks)``.

    Shared by the tuple-set and columnar atom views (full build and
    extend-in-place paths) and the semi-naive refresh's delta views, so
    every consumer filters appended rows through exactly the same recipe.
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


def filter_atom_rows(rows: Iterable[tuple], shape: tuple) -> set:
    """Run stored rows through an :func:`atom_shape` recipe: constant and
    repeated-variable selections, then projection onto the kept columns."""
    _, keep_indexes, constant_checks, equality_checks = shape
    out = set()
    for row in rows:
        if any(row[i] != value for i, value in constant_checks):
            continue
        if any(row[i] != row[anchor] for i, anchor in equality_checks):
            continue
        out.add(tuple(row[i] for i in keep_indexes))
    return out


def from_atom(atom, database) -> NamedRelation:
    """The named relation induced by a query atom over a database.

    Handles constants (selection) and repeated variables (equality selection)
    so the rest of the evaluators can assume clean named columns.  All
    selections and the projection run in a single pass over the stored rows.

    Databases with the **atom-view cache** enabled
    (:meth:`~repro.cq.database.Database.enable_atom_cache` — resident shards
    held by runtime workers and the session's partition cache) memoize the
    result per ``(relation, term pattern)`` together with the relation
    version it reflects.  A repeated query over a resident shard skips the
    scan entirely and reuses the cached view *and* the key indexes later
    operations memoized on it.  When the relation's version has moved, the
    cached view is **extended in place**: only the ``delta_since`` rows run
    through the atom's selection recipe, and surviving rows patch the
    memoized key-index buckets (see :meth:`NamedRelation.extend_rows`) —
    refresh cost scales with the delta, not the relation.
    """
    relation = database.relation(atom.relation)
    cache = database.atom_cache
    cache_key = None
    if cache is not None:
        cache_key = (atom.relation, atom.terms)
        entry = cache.get(cache_key)
        if entry is not None:
            seen, view, shape = entry
            version = relation.version
            if version != seen:
                view.extend_rows(
                    filter_atom_rows(relation.delta_since(seen), shape)
                )
                cache[cache_key] = (version, view, shape)
            return view
    shape = atom_shape(atom)
    version = relation.version
    rows = filter_atom_rows(relation.tuples, shape)
    result = NamedRelation._trusted(shape[0], rows)
    if cache is not None:
        if len(cache) >= 256:
            # A resident shard serves a bounded set of atom patterns; a cap
            # this size only ever trips on pathological workloads, where
            # restarting the memo beats unbounded growth.
            cache.clear()
        cache[cache_key] = (version, result, shape)
    return result
