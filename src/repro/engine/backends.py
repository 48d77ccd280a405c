"""Strategy backends: the evaluators behind each plan strategy.

A backend answers the three query tasks — Boolean satisfiability, answer
enumeration, answer counting — for plans of one strategy.  The built-in
backends wrap the existing evaluators (the columnar kernel of
:mod:`repro.cq.columnar` + :mod:`repro.cq.yannakakis` for the decomposition
strategies, :mod:`repro.cq.homomorphism` for the structure-blind fallback);
new strategies — a sharded evaluator, an async or multi-backend executor —
register through :func:`register_backend` and become dispatchable without
touching the executor.
"""

from __future__ import annotations

from repro.cq.database import Database
from repro.cq.homomorphism import boolean_answer, count_answers, enumerate_answers
from repro.cq.query import ConjunctiveQuery
from repro.engine.planner import (
    Plan,
    STRATEGY_BACKTRACKING,
    STRATEGY_GHD,
    STRATEGY_TRIVIAL,
    STRATEGY_YANNAKAKIS,
)


class EvaluationBackend:
    """Interface every strategy backend implements."""

    name = "abstract"

    def boolean(self, query: ConjunctiveQuery, database: Database, plan: Plan) -> bool:
        raise NotImplementedError

    def answers(self, query: ConjunctiveQuery, database: Database, plan: Plan) -> set[tuple]:
        raise NotImplementedError

    def count(self, query: ConjunctiveQuery, database: Database, plan: Plan) -> int:
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"


class TrivialBackend(EvaluationBackend):
    """The empty conjunction: vacuously true, one (empty) answer."""

    name = STRATEGY_TRIVIAL

    def boolean(self, query, database, plan) -> bool:
        return True

    def answers(self, query, database, plan) -> set[tuple]:
        return {()}

    def count(self, query, database, plan) -> int:
        return 1


class ColumnarBackend(EvaluationBackend):
    """The decomposition strategies: bag materialisation along the plan's
    decomposition, then Yannakakis (or the join-tree counting DP).  Serves
    both the direct-Yannakakis strategy (width-1 join tree) and the
    GHD-guided strategy — the only difference is where the decomposition
    came from.

    Every relation is a :class:`~repro.cq.columnar.ColumnarRelation` of
    interned value ids: int-keyed hash joins and semijoins, column-wise
    gathers, and a single id→value decode at the answer boundary (see
    :mod:`repro.cq.columnar`).  The database interns itself on first use
    through ``Database.columnar_view``, which serves snapshots of its id
    tables.
    """

    def __init__(self, name: str) -> None:
        self.name = name

    def _ghd(self, plan: Plan):
        if plan.decomposition is None:
            raise ValueError(
                f"plan for strategy {plan.strategy!r} carries no decomposition"
            )
        return plan.decomposition

    def boolean(self, query, database, plan) -> bool:
        from repro.cq.columnar import columnar_boolean_answer

        return columnar_boolean_answer(query, database, self._ghd(plan))

    def answers(self, query, database, plan) -> set[tuple]:
        from repro.cq.columnar import columnar_enumerate_answers

        return columnar_enumerate_answers(query, database, self._ghd(plan))

    def count(self, query, database, plan) -> int:
        from repro.cq.columnar import (
            build_columnar_bag_tree,
            columnar_count_answers,
        )
        from repro.cq.yannakakis import yannakakis_boolean, yannakakis_full

        if query.is_full():
            # Proposition 4.14: the factorized DP counts |q(D)| over per-row
            # weight vectors — no result row is ever materialised.
            return columnar_count_answers(query, database, self._ghd(plan))
        # Non-full queries count distinct projections.  Stay in id space:
        # enumerate columnar-side and take the length — the decode step is
        # skipped entirely because the values never leave the kernel.  The
        # enumeration joins only the pruned tree T_F; when the free
        # variables fit the root bag it is the size of the projected,
        # upward-reduced root, with no downward pass and no join.
        if not query.atoms:
            return 1
        tree = build_columnar_bag_tree(query, database, self._ghd(plan))
        if not query.free_variables:
            return 1 if yannakakis_boolean(tree) else 0
        return len(yannakakis_full(tree, output_columns=query.free_variables))


class BacktrackingBackend(EvaluationBackend):
    """The structure-blind fallback: the hash-indexed backtracking solver."""

    name = STRATEGY_BACKTRACKING

    def boolean(self, query, database, plan) -> bool:
        return boolean_answer(query, database)

    def answers(self, query, database, plan) -> set[tuple]:
        return enumerate_answers(query, database)

    def count(self, query, database, plan) -> int:
        return count_answers(query, database)


_REGISTRY: dict[str, EvaluationBackend] = {}


def register_backend(strategy: str, backend: EvaluationBackend, replace: bool = False) -> None:
    """Register ``backend`` as the evaluator for plans of ``strategy``.

    Registration is global (module-level): every engine dispatches through
    the same registry.  Pass ``replace=True`` to swap a built-in out.
    """
    if strategy in _REGISTRY and not replace:
        raise ValueError(
            f"a backend for strategy {strategy!r} is already registered "
            "(pass replace=True to substitute it)"
        )
    _REGISTRY[strategy] = backend


def unregister_backend(strategy: str) -> None:
    """Remove a registered backend (tests and hot-swapping extensions)."""
    _REGISTRY.pop(strategy, None)


def backend_for(strategy: str) -> EvaluationBackend:
    try:
        return _REGISTRY[strategy]
    except KeyError:
        raise ValueError(
            f"no backend registered for strategy {strategy!r}; "
            f"registered: {sorted(_REGISTRY)}"
        ) from None


def registered_strategies() -> tuple:
    return tuple(sorted(_REGISTRY))


register_backend(STRATEGY_TRIVIAL, TrivialBackend())
# The decomposition strategies run on the columnar kernel (the database
# interns itself on first evaluation); register_backend(replace=True) still
# swaps either strategy wholesale.
register_backend(STRATEGY_YANNAKAKIS, ColumnarBackend(STRATEGY_YANNAKAKIS))
register_backend(STRATEGY_GHD, ColumnarBackend(STRATEGY_GHD))
register_backend(STRATEGY_BACKTRACKING, BacktrackingBackend())
