"""Exact statistics over interned ids, and the join-size estimators they feed.

The overlap-greedy pair selection in :func:`repro.cq.relational.natural_join_all`
knows the column structure and the input cardinalities but nothing about the
*data*.  Uniform data forgives that; Zipfian data does not — a hub value
carrying 30% of a column's mass turns the "obvious" join into an ``n²``
blow-up that a statistics-aware order avoids entirely.  The decomposition
fixes each bag's size bound (Proposition 2.2), so the order of the joins
inside a bag only ranks work, and exact statistics make that ranking cheap:
a columnar relation holds dense interned ids, so one ``np.bincount`` gives a
column's exact degree vector (:meth:`repro.cq.columnar.ColumnarRelation
.degrees`).  This module supplies:

* :func:`estimate_join_rows` / :func:`estimate_semijoin_fraction` — on one
  shared column, the exact join size (the dot product of the two degree
  vectors) and the exact surviving fraction (the degree mass on ids the
  other side holds).  Several shared columns multiply their single-column
  selectivities (the independence assumption);
* the **join-ordering mode** (:func:`forced_join_ordering`, read by
  :func:`join_ordering`), scoped to the calling thread or task, and the
  **join record** of each engine call (:func:`join_record`): its cost and
  static join steps and its estimated vs. actual rows, which the executor
  surfaces as ``EvalResult.timings["stats"]``.  The same steps also add to
  process totals (:func:`ledger_snapshot`), which benchmarks read.

The join kernel (:mod:`repro.cq.relational`'s ``natural_join_all``, which
the columnar kernel calls) and the engine's executor and session import
*from* here.
"""

from __future__ import annotations

import threading
from collections.abc import Hashable, Sequence
from contextlib import contextmanager
from contextvars import ContextVar


# ----------------------------------------------------------------------
# Join-size estimation from degree vectors
# ----------------------------------------------------------------------
def _column_join_rows(left, right, column: Hashable) -> int:
    """The exact ``|L ⋈ R|`` on one shared column: the sum over ids ``k``
    of ``deg_L(k) * deg_R(k)``, at most ``len(L) * len(R)``, so the int64
    dot product cannot wrap.  A vector built before the interner grew is
    shorter; the ids past its end occur nowhere on that side, so truncating
    both to the shorter length is exact."""
    left_degrees = left.degrees(column)
    right_degrees = right.degrees(column)
    common = min(len(left_degrees), len(right_degrees))
    return int(left_degrees[:common] @ right_degrees[:common])


def estimate_join_rows(left, right, shared: Sequence[Hashable]) -> float:
    """Estimated ``|L ⋈ R|`` of two columnar relations over their shared
    columns: exact on one shared column, the cross-product size scaled by
    each column's selectivity on several.  With no shared column this is
    the cross-product size."""
    base = float(len(left)) * float(len(right))
    if base == 0.0:
        return 0.0
    estimate = base
    for column in shared:
        # Multiply before dividing: one shared column gives its exact size.
        estimate = estimate * _column_join_rows(left, right, column) / base
    return estimate


def estimate_semijoin_fraction(left, right, shared: Sequence[Hashable]) -> float:
    """Estimated fraction of ``left`` rows surviving ``left ⋉ right``: on
    one shared column, exactly the degree mass of ``left`` on the ids
    ``right`` holds, over ``len(left)``; on several, the product of those
    fractions.  With no shared column every row survives a non-empty
    ``right`` and none an empty one, as in the columnar ``semijoin``."""
    rows = len(left)
    if rows == 0 or len(right) == 0:
        return 0.0
    fraction = 1.0
    for column in shared:
        left_degrees = left.degrees(column)
        held = right.degrees(column)[: len(left_degrees)] > 0
        fraction *= int(left_degrees[: len(held)][held].sum()) / rows
    return fraction


# ----------------------------------------------------------------------
# A retired name
# ----------------------------------------------------------------------
class StatisticsStore:
    """Retired name of the per-position value counts of stored relations,
    which fed only the sharding layer's hub screening; both were deleted
    (``docs/PERFORMANCE.md`` → Skew & statistics).  Nothing constructs it
    or calls :meth:`relation_stats`; the name stays only so tooling that
    binds ``StatisticsStore.relation_stats`` by name
    (``perfbench/tracing.py``) still resolves."""

    def relation_stats(self, relation) -> None:
        """Never called; see the class docstring."""


# ----------------------------------------------------------------------
# Join-ordering mode: the cost-based / static-greedy choice, per caller
# ----------------------------------------------------------------------
ORDERING_COST = "cost-based"
ORDERING_STATIC = "static-greedy"

_ordering = ContextVar("forced_ordering", default=ORDERING_COST)


def join_ordering() -> str:
    """The caller's join-ordering mode (:data:`ORDERING_COST` unless a
    :func:`forced_join_ordering` block on this thread or task says
    otherwise)."""
    return _ordering.get()


@contextmanager
def forced_join_ordering(mode: str):
    """Run a block under a forced ordering mode.  The mode holds for the
    calling thread (or asyncio task) only: other threads keep theirs, and
    tasks shipped to process workers do not carry it.  Benchmarks force
    :data:`ORDERING_STATIC` to A/B the statistics-driven order against the
    overlap greedy on identical data."""
    if mode not in (ORDERING_COST, ORDERING_STATIC):
        raise ValueError(
            f"unknown join ordering {mode!r}; choose "
            f"{ORDERING_COST!r} or {ORDERING_STATIC!r}"
        )
    token = _ordering.set(mode)
    try:
        yield
    finally:
        _ordering.reset(token)


# ----------------------------------------------------------------------
# Join records: estimates vs. actuals, per call and in process totals
# ----------------------------------------------------------------------
#: ``prefilter_passes`` and ``prefilter_rows_dropped`` always read 0; they
#: stay because the benchmark harness's ledger readers index them.
_LEDGER_FIELDS = (
    "cost_joins", "static_joins", "prefilter_passes", "prefilter_rows_dropped",
    "estimated_rows", "actual_rows",
)
_ledger_lock = threading.Lock()
_ledger = dict.fromkeys(_LEDGER_FIELDS, 0)
_open_record = ContextVar("join_record", default=None)


@contextmanager
def join_record():
    """Open a zeroed join record for one engine call and yield it.

    Join steps taken by this thread or task inside the block add to it.  On
    exit it folds into the record of the enclosing call, if any, so a
    sharded call's record sums its inline pieces; work done on other
    threads or in process workers never reaches it."""
    record = dict.fromkeys(_LEDGER_FIELDS, 0)
    token = _open_record.set(record)
    try:
        yield record
    finally:
        _open_record.reset(token)
        outer = _open_record.get()
        if outer is not None:
            for field in _LEDGER_FIELDS:
                outer[field] += record[field]


def record_cost_join(estimated: float, actual: int) -> None:
    _record(cost_joins=1, estimated_rows=int(estimated), actual_rows=actual)


def record_static_join() -> None:
    _record(static_joins=1)


def _record(**moved: int) -> None:
    """Add one join step to the caller's open record and the totals."""
    record = _open_record.get()
    with _ledger_lock:
        for field, value in moved.items():
            _ledger[field] += value
            if record is not None:
                record[field] += value


def ledger_snapshot() -> dict:
    """A copy of the process totals plus the caller's ordering mode."""
    with _ledger_lock:
        snapshot = dict(_ledger)
    snapshot["mode"] = join_ordering()
    return snapshot


def reset_ledger() -> None:
    """Zero the process totals (test and benchmark isolation)."""
    with _ledger_lock:
        for field in _LEDGER_FIELDS:
            _ledger[field] = 0
