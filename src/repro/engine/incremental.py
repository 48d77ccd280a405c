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
recipe (:meth:`~repro.cq.columnar.ColumnarStore.delta` — the same id-level
selection the full views use) and every *other* atom contributes its full
current view.  The rule is exact for monotone queries: every genuinely new
answer embeds at least one appended tuple in at least one atom position,
and the term for that position covers it (the other positions use the
full post-append views, which contain both old and new rows, so Δ⋈old,
old⋈Δ, and Δ⋈Δ combinations are all swept up; the union dedups the
overlap).

The terms run on the columnar kernel (:mod:`repro.cq.columnar`).  Each
relation's appended rows are interned once, into its id table in the
database's columnar store.  The full views are that store's snapshots
(:meth:`~repro.cq.database.Database.columnar_view`): a new snapshot reads
the appended rows off the table and shares the older one's join-key
indexes and sort orders, topped up with the delta.  The deltas are read
off the same table, and only the new answers are decoded.  Refresh cost
therefore scales with the delta, not the database.

That includes handing the answers back.  Because the answers only grow,
the view keeps them twice: :attr:`IncrementalView.rows`, the live ``set``
that later refreshes keep growing, and an append-only log of the same
answers in the order refreshes found them.  The answers at any refresh
are a prefix of that log, so each refresh result's ``rows`` is an
:class:`AnswerSnapshot` of the prefix — O(1) to take, read-only, and
still exact after later refreshes — instead of a copy of the answer set.

When the delta is a large fraction of the stored data (more than
:data:`DEFAULT_REFRESH_THRESHOLD`), re-joining delta against full views
stops being cheaper than a fresh evaluation, so :meth:`refresh` falls back
to one exact full recompute through the owning session.  A view's first
refresh is that full recompute from version zero, reported as mode
``initial``; the view adopts the session's fresh answer set instead of
copying it.  The decision is recorded in the returned plan's rationale and
in ``EvalResult.timings["incremental"]``.
"""

from __future__ import annotations

import threading
import time
from collections.abc import Set
from itertools import islice

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


class AnswerSnapshot(Set):
    """The answers a view held at one refresh: a read-only set over the
    first ``n`` entries of the view's append-only answer log.

    Taking one is O(1).  Iteration walks the log up to ``n`` (a list
    iterator tolerates appends, and entries past ``n`` are never reached),
    so a snapshot stays exact while the view refreshes on another thread.
    The first membership test builds a frozenset of the prefix; the set
    operators (``|``, ``&``, ``-``, ``^``) return plain ``set`` objects.
    :meth:`since` serves a consumer that only wants the answers it has not
    seen yet.  Like ``set``, a snapshot is unhashable.
    """

    __slots__ = ("_log", "_length", "_members")

    def __init__(self, log: list, length: int) -> None:
        self._log = log
        self._length = length
        self._members = None

    def __len__(self) -> int:
        return self._length

    def __iter__(self):
        return islice(self._log, self._length)

    def __contains__(self, row) -> bool:
        if self._members is None:
            self._members = frozenset(self)
        return row in self._members

    @classmethod
    def _from_iterable(cls, iterable) -> set:
        return set(iterable)

    def since(self, start: int) -> list:
        """The answers at log positions ``[start, len(self))``, in O(delta):
        what a consumer that has seen the first ``start`` has not."""
        return self._log[start:self._length]

    def __repr__(self) -> str:
        return f"AnswerSnapshot({self._length} answers)"


class IncrementalView:
    """A standing query whose answer set refreshes in delta time.

    Construct one via :meth:`EngineSession.incremental_view` (or directly);
    call :meth:`refresh` after appends.  Every refresh returns a normal
    :class:`~repro.engine.executor.EvalResult` for the ``answer`` task whose
    ``rows`` is a read-only :class:`AnswerSnapshot` of the answers at that
    refresh, and whose ``timings["incremental"]`` records how the refresh
    ran: ``mode`` (``initial`` / ``noop`` / ``incremental`` / ``full``),
    ``delta_rows`` (stored rows folded in), ``delta_fraction``,
    ``new_answers``, and ``refresh_seconds``.

    The maintained answer set is exact after every refresh — the
    differential harness (``tests/engine/test_differential.py``) pins it
    against a from-scratch ``answer()`` across workload regimes — and only
    ever grows, so :attr:`satisfiable` and :attr:`count` read straight off
    it.  :attr:`rows` is that live ``set``; a snapshot keeps the answers
    of its own refresh.  A view is safe to refresh from multiple threads
    (refreshes serialize on an internal lock), but appends racing a
    refresh land in the *next* refresh: versions are captured before
    evaluation.
    """

    def __init__(self, session, query: ConjunctiveQuery, database: Database) -> None:
        if not isinstance(query, ConjunctiveQuery):
            raise TypeError(f"expected a ConjunctiveQuery, got {type(query).__name__}")
        self.session = session
        self.query = query
        self.database = database
        #: The maintained answer set (tuples over ``query.free_variables``);
        #: the live set, grown in place by every refresh.
        self.rows: set = set()
        #: The same answers in the order refreshes found them.  Append-only,
        #: so every snapshot handed out is a prefix of it.
        self._log: list = []
        #: Relation name -> storage version the answer set reflects
        #: (0 for relations the database does not hold yet).
        self.versions: dict = {
            name: 0 for name in query.relation_names()
        }
        self.refreshes = 0
        self.refresh_modes: dict = {}
        #: The plan of the last full evaluation; ``None`` until the first
        #: refresh, which is the full refresh from version zero.
        self._plan = None
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
            # Captured *before* evaluating: an append racing the evaluation
            # may or may not be reflected in the rows, and folding it again
            # on the next refresh is harmless (the union dedups).
            current = self._current_versions()
            if self._plan is not None and current == self.versions:
                return self._result(MODE_NOOP, 0, 0.0, 0, started)
            delta_rows, total_rows = self._delta_size(current)
            fraction = (delta_rows / total_rows) if total_rows else 1.0
            if self._plan is None or fraction > DEFAULT_REFRESH_THRESHOLD:
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
            delta += current[name] - seen
        return delta, total

    # ------------------------------------------------------------------
    def _full(self, current, delta_rows, fraction, started) -> EvalResult:
        """One exact evaluation through the session: the first refresh
        (mode ``initial``, from version zero) or a delta past the
        threshold (mode ``full``)."""
        if self._plan is None:
            mode, note = MODE_INITIAL, "initial full evaluation"
        else:
            mode, note = MODE_FULL, (
                f"delta fraction {fraction:.2f} > threshold "
                f"{DEFAULT_REFRESH_THRESHOLD:.2f}, full recompute"
            )
        result = self.session.answer(self.query, self.database)
        new_answers = self._absorb(result.rows)
        self.versions = current
        self._plan = result.plan
        self._record(mode)
        elapsed = time.perf_counter() - started
        result.plan = result.plan.with_note(f"incremental view: {note}")
        result.rows = self._snapshot()
        result.timings["incremental"] = {
            "mode": mode,
            "delta_rows": delta_rows,
            "delta_fraction": fraction,
            "new_answers": new_answers,
            "refresh_seconds": elapsed,
        }
        return result

    def _incremental(self, current, delta_rows, fraction, started) -> EvalResult:
        new_answers = self._absorb(self._semi_naive(current))
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
        result = EvalResult.of(TASK_ANSWER, plan, self._snapshot(), 0.0, elapsed)
        result.timings["incremental"] = {
            "mode": mode,
            "delta_rows": delta_rows,
            "delta_fraction": fraction,
            "new_answers": new_answers,
            "refresh_seconds": elapsed,
        }
        return result

    def _absorb(self, answers: set) -> int:
        """Extend the log and the live set by the answers in ``answers``
        not held yet; returns how many there were.  ``answers`` is a fresh
        set, so a view holding none adopts it instead of copying it."""
        if self.rows:
            new = answers - self.rows
            self.rows |= new
        else:
            new = self.rows = answers
        self._log.extend(new)
        return len(new)

    def _snapshot(self) -> AnswerSnapshot:
        return AnswerSnapshot(self._log, len(self._log))

    def _record(self, mode: str) -> None:
        self.refreshes += 1
        self.refresh_modes[mode] = self.refresh_modes.get(mode, 0) + 1

    # ------------------------------------------------------------------
    def _semi_naive(self, current: dict) -> set:
        """The new-answer union: one delta-first join chain per grown atom,
        folding in each grown relation's rows up to its ``current`` version.

        The zero-atom query is vacuously true with the single empty-tuple
        answer and never reaches here (no versions can move); a query
        mentioning a relation the database still lacks has an empty view in
        every term, so the loop naturally contributes nothing for it.
        """
        query = self.query
        database = self.database
        atoms = query.atoms
        if any(not database.has_relation(atom.relation) for atom in atoms):
            # A missing relation is empty, so the whole answer set is empty
            # now and stays empty until it appears — at which point its
            # tracked version 0 makes its entire contents the delta.
            return set()
        # One store for the whole refresh: the full views are its snapshots
        # at the relations' current versions, and each grown atom's delta
        # is the id-table rows in [seen, current) — a row appended after
        # the versions were captured belongs to the next refresh, and
        # ``delta_rows`` counts these.
        store = database.columnar_store()
        full_views = [database.columnar_view(atom, store) for atom in atoms]
        new: set = set()
        free = query.free_variables
        for index, atom in enumerate(atoms):
            seen, stop = self.versions[atom.relation], current[atom.relation]
            if seen == stop:
                continue
            delta = store.delta(atom, database.relation(atom.relation), seen, stop)
            if not delta:
                continue
            others = [view for j, view in enumerate(full_views) if j != index]
            joined = _join_chain(delta, others, free)
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
