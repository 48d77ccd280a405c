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
  selectivities (the independence assumption).  Only columnar relations
  keep degree vectors; tuple-set pools, reference code, take the static
  order;
* the **join-ordering mode** toggle (:func:`set_join_ordering` /
  :func:`forced_join_ordering`) and the process-wide **ledger** of estimate
  vs. actual records (:func:`ledger_snapshot`), which the executor surfaces
  as ``EvalResult.timings["stats"]`` and benchmarks use to force the static
  order for A/B comparison.

The join kernel (:mod:`repro.cq.relational`'s ``natural_join_all``, which
the columnar kernel calls) and the engine's executor and session import
*from* here.
"""

from __future__ import annotations

import threading
from collections.abc import Hashable, Sequence
from contextlib import contextmanager


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
    ``right`` and none an empty one, as in both kernels' ``semijoin``."""
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
# Join-ordering mode: the cost-based / static-greedy toggle
# ----------------------------------------------------------------------
ORDERING_COST = "cost-based"
ORDERING_STATIC = "static-greedy"

_ordering_lock = threading.Lock()
_ordering_mode = ORDERING_COST


def join_ordering() -> str:
    """The process-wide join-ordering mode (:data:`ORDERING_COST` default)."""
    return _ordering_mode


def set_join_ordering(mode: str) -> str:
    """Set the ordering mode; returns the previous one.  Benchmarks force
    :data:`ORDERING_STATIC` to A/B the statistics-driven order against the
    historical overlap greedy on identical data."""
    global _ordering_mode
    if mode not in (ORDERING_COST, ORDERING_STATIC):
        raise ValueError(
            f"unknown join ordering {mode!r}; choose "
            f"{ORDERING_COST!r} or {ORDERING_STATIC!r}"
        )
    with _ordering_lock:
        previous = _ordering_mode
        _ordering_mode = mode
        return previous


@contextmanager
def forced_join_ordering(mode: str):
    """Run a block under a forced ordering mode (process-wide — benchmark
    and test use only, not safe under concurrent evaluation)."""
    previous = set_join_ordering(mode)
    try:
        yield
    finally:
        set_join_ordering(previous)


# ----------------------------------------------------------------------
# The estimate ledger: estimates vs. actuals, process-wide
# ----------------------------------------------------------------------
#: ``prefilter_passes`` and ``prefilter_rows_dropped`` always read 0; they
#: stay because the benchmark harness's ledger readers index them.
_LEDGER_FIELDS = (
    "cost_joins", "static_joins", "prefilter_passes", "prefilter_rows_dropped",
    "estimated_rows", "actual_rows",
)
_ledger_lock = threading.Lock()
_ledger = {field: 0 for field in _LEDGER_FIELDS}


def record_cost_join(estimated: float, actual: int) -> None:
    with _ledger_lock:
        _ledger["cost_joins"] += 1
        _ledger["estimated_rows"] += int(estimated)
        _ledger["actual_rows"] += actual


def record_static_join() -> None:
    with _ledger_lock:
        _ledger["static_joins"] += 1


def ledger_snapshot() -> dict:
    """A copy of the ledger counters plus the current ordering mode."""
    with _ledger_lock:
        snapshot = dict(_ledger)
    snapshot["mode"] = join_ordering()
    return snapshot


def ledger_delta(before: dict, after: dict) -> dict:
    """The counter movement between two snapshots (numeric fields only)."""
    return {
        field: after[field] - before[field]
        for field in _LEDGER_FIELDS
    }


def reset_ledger() -> None:
    """Zero the ledger (test isolation)."""
    with _ledger_lock:
        for field in _LEDGER_FIELDS:
            _ledger[field] = 0
