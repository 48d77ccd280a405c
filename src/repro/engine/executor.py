"""The engine's result type and its module-level front door.

``answer(query, db)``, ``is_satisfiable(query, db)``, and ``count(query,
db)`` run the full analysis → plan → execute pipeline on the process-default
:class:`~repro.engine.session.EngineSession` and return a uniform
:class:`EvalResult` — the answer payload plus the plan that produced it and
per-stage timings.  A caller that wants control can plan once and execute
many times by passing ``plan=`` explicitly (the plan embeds the witnessing
decomposition, so re-execution skips analysis and planning entirely).
"""

from __future__ import annotations

from collections.abc import Set as AbstractSet
from dataclasses import dataclass, field

from repro.engine.planner import Plan

TASK_ANSWER = "answer"
TASK_SATISFIABLE = "satisfiable"
TASK_COUNT = "count"

#: The :class:`EvalResult` field that carries each task's payload.
_PAYLOAD_FIELDS = {
    TASK_ANSWER: "rows",
    TASK_SATISFIABLE: "satisfiable",
    TASK_COUNT: "count",
}


@dataclass
class EvalResult:
    """The uniform result of one engine call.

    Exactly one of ``rows`` / ``satisfiable`` / ``count`` is populated,
    matching ``task``; :attr:`value` returns it.  ``plan`` is the plan that
    ran, as it is: the caller's ``plan=`` or the session's cached plan
    object, which every call it serves shares.  ``rows`` is a ``set``,
    except on :meth:`~repro.engine.incremental.IncrementalView.refresh`
    results, where it is a read-only
    :class:`~repro.engine.incremental.AnswerSnapshot` of the view's
    answers at that refresh (the view's live set is ``view.rows``).
    ``timings`` holds
    ``planning_seconds`` (the planning work done by *this call*: the cold
    analysis + planning cost on first sight of a query, near-zero on a
    session plan-cache hit, ``0.0`` when a pre-built plan was passed in),
    ``execution_seconds``, and ``total_seconds``.  Five optional entries:

    * ``dedup_of`` — the batch index of the representative this result was
      deduplicated from (:meth:`EngineSession._run_many`); absent on results
      that were actually executed;
    * ``sharding`` — the sharded-execution record (mode, shard variable,
      shard count, per-shard seconds; see :attr:`sharding`);
    * ``runtime`` — where the fan-out work ran (runtime name, workers used,
      per-task worker timings; see :attr:`runtime`);
    * ``stats`` — the call's own join record (see :attr:`stats`);
    * ``incremental`` — how a standing view's refresh ran (see
      :attr:`incremental`).
    """

    task: str
    plan: Plan
    rows: AbstractSet | None = None
    satisfiable: bool | None = None
    count: int | None = None
    timings: dict = field(default_factory=dict)

    @classmethod
    def of(cls, task: str, plan: Plan, value, planning: float, execution: float):
        """The result of ``task`` with payload ``value`` and the three
        timing entries every result carries."""
        return cls(
            task=task,
            plan=plan,
            timings={
                "planning_seconds": planning,
                "execution_seconds": execution,
                "total_seconds": planning + execution,
            },
            **{_PAYLOAD_FIELDS[task]: value},
        )

    @property
    def value(self):
        if self.task == TASK_ANSWER:
            return self.rows
        if self.task == TASK_SATISFIABLE:
            return self.satisfiable
        return self.count

    @property
    def strategy(self) -> str:
        return self.plan.strategy

    @property
    def sharding(self) -> dict | None:
        """The sharded-execution record, or ``None`` for unsharded calls.

        Filled by :meth:`EngineSession.answer` & friends when called with
        ``shards > 1``: ``mode`` (the fallback-ladder rung that ran),
        ``shard_variable``, ``shards`` (executed), ``requested_shards``,
        ``per_shard_seconds``, ``broadcast_relations``, ``rationale`` (why
        the ladder landed on ``mode``, in prose naming the plan's
        variables), and — for sharded counts — ``count_via`` (``"sum"``
        when the shard variable is free, ``"union"`` otherwise).
        """
        return self.timings.get("sharding")

    @property
    def runtime(self) -> dict | None:
        """The execution-runtime record, or ``None`` for plain calls.

        Filled by the session's sharded and batch paths: ``name`` (the
        :mod:`~repro.engine.runtime` that executed the fan-out), plus —
        for sharded calls — ``tasks``, ``workers`` (``"inline"`` or the
        worker-process pids that ran them), and ``per_task_seconds``
        (worker-side execution time per task).
        """
        return self.timings.get("runtime")

    @property
    def stats(self) -> dict | None:
        """This call's own join record, or ``None`` when nothing ran.

        Filled whenever the execution exercised the cost-based machinery of
        :mod:`repro.cq.statistics` (always on sharded calls, where it sums
        the inline pieces): ``mode`` (the caller's join-ordering mode),
        ``cost_joins`` / ``static_joins`` (pairwise join steps taken by each
        path), and ``estimated_rows`` / ``actual_rows`` (summed cardinality
        estimates vs. the joins they predicted; equal whenever each
        cost-chosen join shares one column, where the estimate is exact).
        ``prefilter_passes`` / ``prefilter_rows_dropped`` always read 0.
        """
        return self.timings.get("stats")

    @property
    def incremental(self) -> dict | None:
        """The incremental-refresh record, or ``None`` for plain calls.

        Filled by :class:`repro.engine.incremental.IncrementalView`:
        ``mode`` (``initial`` / ``noop`` / ``incremental`` / ``full``),
        ``delta_rows`` (stored rows folded in), ``delta_fraction``,
        ``new_answers``, and ``refresh_seconds``.  Such a result's ``rows``
        is an :class:`~repro.engine.incremental.AnswerSnapshot`, not a
        ``set``: read-only, and ``rows.since(k)`` returns just the answers
        after the first ``k``.
        """
        return self.timings.get("incremental")

    def __repr__(self) -> str:
        return (
            f"EvalResult(task={self.task!r}, value={self.value!r}, "
            f"strategy={self.strategy!r})"
        )


def _default():
    # Imported here because session.py builds on this module.
    from repro.engine.session import default_session

    return default_session()


def answer(query, database, plan=None, use_core=False) -> EvalResult:
    """``q(D)`` through the default session (see :meth:`EngineSession.answer`)."""
    return _default().answer(query, database, plan=plan, use_core=use_core)


def is_satisfiable(query, database, plan=None, use_core=False) -> EvalResult:
    """BCQ through the default session."""
    return _default().is_satisfiable(query, database, plan=plan, use_core=use_core)


def count(query, database, plan=None, use_core=False) -> EvalResult:
    """#CQ through the default session."""
    return _default().count(query, database, plan=plan, use_core=use_core)


def plan_query(query, use_core=False, force_strategy=None) -> Plan:
    """Plan without executing (inspect strategy, witness, rationale)."""
    return _default().plan(query, use_core=use_core, force_strategy=force_strategy)
