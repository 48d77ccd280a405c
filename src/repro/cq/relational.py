"""Named relations, the multi-way join order, and atom views.

Three pieces every evaluator shares:

* :class:`NamedRelation` — a set of value rows over an ordered tuple of
  column names (query variables).  It is the decoded value of an atom over
  a database: :func:`from_atom` hands it to the backtracking solver, and
  :meth:`repro.cq.columnar.ColumnarRelation.from_named` /
  :meth:`~repro.cq.columnar.ColumnarRelation.to_named` convert it to and
  from the columnar kernel.  It runs no relational operator; joins,
  semijoins and projections are the columnar kernel's
  (:mod:`repro.cq.columnar`);
* :func:`natural_join_all` — the multi-way join of one bag's pool, with its
  cost-based or static pair order;
* :func:`atom_shape` / :func:`from_atom` — the selection and projection
  recipe an atom induces on its relation.
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


class NamedRelation:
    """A set of value rows over named columns."""

    __slots__ = ("columns", "rows", "_positions")

    def __init__(self, columns: Sequence[Hashable], rows: Iterable[tuple] = ()) -> None:
        self.columns: tuple = tuple(columns)
        self._positions: dict = {c: i for i, c in enumerate(self.columns)}
        if len(self._positions) != len(self.columns):
            raise ValueError(f"duplicate column names: {self.columns!r}")
        self.rows: set[tuple] = set()
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
        return relation

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)

    def __bool__(self) -> bool:
        return bool(self.rows)

    def __eq__(self, other: object) -> bool:
        """Equal row sets up to column order."""
        if other is self:
            return True
        if not isinstance(other, NamedRelation):
            return NotImplemented
        if self.columns == other.columns:
            return self.rows == other.rows
        if set(self.columns) != set(other.columns):
            return False
        if len(self.rows) != len(other.rows):
            return False
        # Remap each row of ``other`` into this relation's column order.
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


def natural_join_all(relations: Sequence, trace: list | None = None):
    """Multi-way natural join of columnar relations
    (:class:`~repro.cq.columnar.ColumnarRelation`), cost-ordered where
    ordering has leverage.

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
    pick the overlapping pair with the smallest *estimated* output
    (:func:`~repro.cq.statistics.estimate_join_rows`, which is exact on one
    shared column: the dot product of the two columns' degree vectors).
    The structure-only static heuristic is exactly what Zipfian data
    defeats, since "most shared columns" says nothing about a hub value
    carrying a third of a column's mass.  Ties in the estimate fall back to
    the static criteria (more shared columns, then smaller combined size).
    Every decision records its estimate against the actual output in the
    calling engine call's join record (`EvalResult.timings["stats"]`).

    ``trace``, when given, receives the intermediate result size after each pairwise join (the
    regression harness compares orders with it).
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


def _static_join_step(pool: list):
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

    Shared by the decoded atom views (:func:`from_atom`) and the columnar
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
    for row in database.atom_relation(atom).tuples:
        if any(row[i] != value for i, value in constant_checks):
            continue
        if any(row[i] != row[anchor] for i, anchor in equality_checks):
            continue
        rows.add(tuple(row[i] for i in keep_indexes))
    return NamedRelation._trusted(columns, rows)
