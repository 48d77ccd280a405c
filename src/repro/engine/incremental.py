"""Semi-naive incremental evaluation over the versioned storage layer.

A :class:`IncrementalView` is a *standing* conjunctive query over one
database: it remembers the answer set it last produced and the storage
version of every relation the query mentions.  After the database grows
(``add_fact`` — relations are append-only, so CQ answers are monotone),
:meth:`IncrementalView.refresh` brings the answer set up to date by joining
**only the appended tuples** against the resident full views, instead of
re-running the query from scratch:

    new = old  ∪  ⋃_i  π_free( Δview_i ⋈ view_1 ⋈ … ⋈ view_n )

one union term per atom ``i`` whose relation grew, where ``Δview_i`` is the
appended rows of atom ``i``'s relation run through the atom's selection
recipe (:meth:`~repro.cq.columnar.ColumnarStore.delta_view` — the same
recipe the full build uses) and every *other* atom contributes its full
current view.  The rule is exact for monotone queries: every genuinely new
answer embeds at least one appended tuple in at least one atom position,
and the term for that position covers it (the other positions use the
full post-append views, which contain both old and new rows, so Δ⋈old,
old⋈Δ, and Δ⋈Δ combinations are all swept up; the union dedups the
overlap).

The terms run on the columnar kernel (:mod:`repro.cq.columnar`): the full
views are the database's resident columnar atom views
(:meth:`~repro.cq.database.Database.columnar_view`), which extend in place
from the same delta log across refreshes, so their memoized join-key
indexes stay warm; the delta interns into the same dictionary, and only
the new answers are decoded.  Refresh cost therefore scales with the
delta, not the database.

When the delta is a large fraction of the stored data (``threshold``,
default :data:`DEFAULT_REFRESH_THRESHOLD`), re-joining delta against full
views stops being cheaper than a fresh evaluation, so :meth:`refresh`
falls back to one exact full recompute through the owning session.  The
decision is recorded in the returned plan's rationale and in
``EvalResult.timings["incremental"]``.
"""

from __future__ import annotations

import threading
import time

from repro.cq.database import Database
from repro.cq.query import ConjunctiveQuery
from repro.engine.executor import TASK_ANSWER, EvalResult

#: Delta fraction (appended rows / total stored rows over the query's
#: relations) above which :meth:`IncrementalView.refresh` abandons the
#: semi-naive path for one exact full recompute.  Past roughly a quarter
#: of the data, the delta joins touch most of what a fresh evaluation
#: would anyway — but pay it once per delta atom.
DEFAULT_REFRESH_THRESHOLD = 0.25

#: ``mode`` values recorded in ``EvalResult.timings["incremental"]``.
MODE_INITIAL = "initial"
MODE_NOOP = "noop"
MODE_INCREMENTAL = "incremental"
MODE_FULL = "full"


class IncrementalView:
    """A standing query whose answer set refreshes in delta time.

    Construct one via :meth:`EngineSession.incremental_view` (or directly);
    call :meth:`refresh` after appends.  Every refresh returns a normal
    :class:`~repro.engine.executor.EvalResult` for the ``answer`` task whose
    ``timings["incremental"]`` records how the refresh ran: ``mode``
    (``initial`` / ``noop`` / ``incremental`` / ``full``), ``delta_rows``
    (stored rows folded in), ``delta_fraction``, ``new_answers``, and
    ``refresh_seconds``.

    The maintained answer set is exact after every refresh — the
    differential harness (``tests/engine/test_differential.py``) pins it
    against a from-scratch ``answer()`` across workload regimes — and only
    ever grows, so :attr:`satisfiable` and :attr:`count` read straight off
    it.  A view is safe to refresh from multiple threads (refreshes
    serialize on an internal lock), but appends racing a refresh land in
    the *next* refresh: versions are captured before evaluation.
    """

    def __init__(
        self,
        session,
        query: ConjunctiveQuery,
        database: Database,
        threshold: float = DEFAULT_REFRESH_THRESHOLD,
    ) -> None:
        if not isinstance(query, ConjunctiveQuery):
            raise TypeError(f"expected a ConjunctiveQuery, got {type(query).__name__}")
        if not 0.0 <= threshold <= 1.0:
            raise ValueError(f"threshold must be in [0, 1], got {threshold!r}")
        self.session = session
        self.query = query
        self.database = database
        self.threshold = threshold
        #: The maintained answer set (tuples over ``query.free_variables``).
        self.rows: set = set()
        #: Relation name -> storage version the answer set reflects
        #: (0 for relations the database does not hold yet).
        self.versions: dict = {
            name: 0 for name in query.relation_names()
        }
        self.refreshes = 0
        self.refresh_modes: dict = {}
        self._plan = None
        self._initialized = False
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    @property
    def satisfiable(self) -> bool:
        """BCQ reading of the maintained answers (refresh first)."""
        return bool(self.rows)

    @property
    def count(self) -> int:
        """#CQ reading of the maintained answers (refresh first)."""
        return len(self.rows)

    def __len__(self) -> int:
        return len(self.rows)

    # ------------------------------------------------------------------
    def refresh(self) -> EvalResult:
        """Bring the answer set up to date with the database; see the
        module docstring for the semi-naive rule and the fallback ladder."""
        with self._lock:
            started = time.perf_counter()
            if not self._initialized:
                return self._initial(started)
            current = self._current_versions()
            if current == self.versions:
                return self._result(MODE_NOOP, 0, 0.0, 0, started)
            delta_rows, total_rows = self._delta_size(current)
            fraction = (delta_rows / total_rows) if total_rows else 1.0
            if fraction > self.threshold:
                return self._full(current, delta_rows, fraction, started)
            return self._incremental(current, delta_rows, fraction, started)

    # ------------------------------------------------------------------
    def _current_versions(self) -> dict:
        database = self.database
        return {
            name: (database.relation(name).version if database.has_relation(name) else 0)
            for name in self.versions
        }

    def _delta_size(self, current: dict) -> tuple:
        """(appended rows since the last refresh, total stored rows) over
        the query's relations — the delta fraction the fallback keys on."""
        delta = 0
        total = 0
        for name, seen in self.versions.items():
            if not self.database.has_relation(name):
                continue
            relation = self.database.relation(name)
            total += len(relation.tuples)
            if current[name] != seen:
                delta += len(relation.delta_since(seen))
        return delta, total

    # ------------------------------------------------------------------
    def _initial(self, started: float) -> EvalResult:
        # Capture versions *before* evaluating: an append racing the
        # evaluation may or may not be reflected in the rows, and folding
        # it again on the next refresh is harmless (the union dedups).
        current = self._current_versions()
        result = self.session.answer(self.query, self.database)
        self.rows = set(result.rows)
        self.versions = current
        self._plan = result.plan
        self._initialized = True
        self._record(MODE_INITIAL)
        elapsed = time.perf_counter() - started
        result.plan = result.plan.with_note("incremental view: initial full evaluation")
        result.rows = set(self.rows)
        result.timings["incremental"] = {
            "mode": MODE_INITIAL,
            "delta_rows": sum(
                len(self.database.relation(n).tuples)
                for n in self.versions
                if self.database.has_relation(n)
            ),
            "delta_fraction": 1.0,
            "new_answers": len(self.rows),
            "refresh_seconds": elapsed,
        }
        return result

    def _full(self, current, delta_rows, fraction, started) -> EvalResult:
        result = self.session.answer(self.query, self.database)
        fresh = set(result.rows)
        new_answers = len(fresh - self.rows)
        self.rows |= fresh
        self.versions = current
        self._plan = result.plan
        self._record(MODE_FULL)
        elapsed = time.perf_counter() - started
        result.plan = result.plan.with_note(
            f"incremental view: delta fraction {fraction:.2f} > "
            f"threshold {self.threshold:.2f}, full recompute"
        )
        result.rows = set(self.rows)
        result.timings["incremental"] = {
            "mode": MODE_FULL,
            "delta_rows": delta_rows,
            "delta_fraction": fraction,
            "new_answers": new_answers,
            "refresh_seconds": elapsed,
        }
        return result

    def _incremental(self, current, delta_rows, fraction, started) -> EvalResult:
        new = self._semi_naive()
        new_answers = len(new - self.rows)
        self.rows |= new
        self.versions = current
        self._record(MODE_INCREMENTAL)
        elapsed = time.perf_counter() - started
        result = self._result(
            MODE_INCREMENTAL, delta_rows, fraction, new_answers, started,
            elapsed=elapsed,
        )
        return result

    def _result(
        self, mode, delta_rows, fraction, new_answers, started, elapsed=None,
    ) -> EvalResult:
        if elapsed is None:
            elapsed = time.perf_counter() - started
        plan = self._plan.with_note(f"incremental view: {mode} refresh")
        if mode == MODE_NOOP:
            self._record(MODE_NOOP)
        result = EvalResult(task=TASK_ANSWER, plan=plan, rows=set(self.rows))
        result.timings = {
            "planning_seconds": 0.0,
            "execution_seconds": elapsed,
            "total_seconds": elapsed,
            "incremental": {
                "mode": mode,
                "delta_rows": delta_rows,
                "delta_fraction": fraction,
                "new_answers": new_answers,
                "refresh_seconds": elapsed,
            },
        }
        return result

    def _record(self, mode: str) -> None:
        self.refreshes += 1
        self.refresh_modes[mode] = self.refresh_modes.get(mode, 0) + 1

    # ------------------------------------------------------------------
    def _semi_naive(self) -> set:
        """The new-answer union: one delta-first join chain per grown atom.

        The zero-atom query is vacuously true with the single empty-tuple
        answer and never reaches here (no versions can move); a query
        mentioning a relation the database still lacks has an empty view in
        every term, so the loop naturally contributes nothing for it.
        """
        query = self.query
        database = self.database
        atoms = query.atoms
        # Raw deltas are read once per relation and shared by every atom
        # over it; the full views are the resident columnar views, extended
        # to the current version by ``columnar_view``.
        raw_delta: dict = {}
        for name, seen in self.versions.items():
            if database.has_relation(name):
                relation = database.relation(name)
                if relation.version != seen:
                    raw_delta[name] = relation.delta_since(seen)
        if any(not database.has_relation(atom.relation) for atom in atoms):
            # A missing relation is empty, so the whole answer set is empty
            # now and stays empty until it appears — at which point its
            # tracked version 0 makes its entire contents the delta.
            return set()
        full_views = [database.columnar_view(atom) for atom in atoms]
        store = database.columnar_store()
        new: set = set()
        free = query.free_variables
        for index, atom in enumerate(atoms):
            delta_source = raw_delta.get(atom.relation)
            if not delta_source:
                continue
            delta_view = store.delta_view(atom, delta_source)
            if not delta_view:
                continue
            others = [view for j, view in enumerate(full_views) if j != index]
            joined = _join_chain(delta_view, others, free)
            new |= joined.project(free).decode_rows()
        return new


def _join_chain(start, others: list, keep):
    """Join ``start`` against every relation in ``others``, delta-first.

    Greedy order: always join next the relation sharing the most columns
    with the accumulated result (ties to the smaller relation), so the
    small delta side keeps pruning and the memoized key indexes on the
    resident full views get hit with selective probes.  When nothing
    overlaps (a disconnected query), the smallest remaining relation is
    folded in as a cross product.

    After every join the intermediate is projected onto ``keep`` (the
    query's free variables) plus the columns some remaining relation still
    joins on: a dropped column can never influence a later equality or the
    output, and the projection's dedup is what keeps delta-first
    intermediates bounded on dense instances — a cycle query would
    otherwise grow by a domain factor per joined atom before the closing
    join prunes it back.
    """
    current = start
    remaining = list(others)
    while remaining:
        bound = set(current.columns)
        best_index = 0
        best_key = None
        for i, candidate in enumerate(remaining):
            overlap = len(bound & set(candidate.columns))
            key = (-overlap, len(candidate))
            if best_key is None or key < best_key:
                best_key = key
                best_index = i
        current = current.natural_join(remaining.pop(best_index))
        needed = set(keep)
        for relation in remaining:
            needed.update(relation.columns)
        kept = [c for c in current.columns if c in needed]
        if len(kept) != len(current.columns):
            current = current.project(kept)
    return current
