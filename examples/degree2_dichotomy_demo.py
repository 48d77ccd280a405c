"""The degree-2 characterisation (Theorem 4.1 / 4.12) as an experiment.

Bounded-ghw degree-2 query classes are answered fast by decomposition-guided
evaluation; the jigsaw class (unbounded ghw) makes the structure-blind solver
work increasingly hard.  Both routes run through the unified engine: the
planner picks the decomposition strategy on its own for the bounded classes,
and ``force_strategy`` pins each side of the comparison.  The demo also shows
the *semantic* side of Theorem 4.12: a query whose raw hypergraph is cyclic
but whose core is trivial has semantic ghw 1 and is easy no matter how it is
written — ``use_core=True`` makes the planner see through the syntax.

Run with ``python examples/degree2_dichotomy_demo.py``.
"""

import time

from repro.cq import Atom, ConjunctiveQuery
from repro.cq import generators as cq_generators
from repro.cq.semantic_width import semantic_ghw
from repro.engine import (
    EngineSession,
    STRATEGY_BACKTRACKING,
    STRATEGY_GHD,
)
from repro.widths.ghw import ghw

ENGINE = EngineSession()


def timed(label: str, function) -> None:
    start = time.perf_counter()
    value = function()
    elapsed = time.perf_counter() - start
    print(f"  {label:<42} {value!s:<6} ({elapsed:.4f}s)")


def bounded_ghw_classes() -> None:
    print("\n=== bounded ghw (tractable side) ===")
    for length in (4, 8, 12):
        query = cq_generators.cycle_query(length)
        database = cq_generators.grid_constraint_database(query, colours=3)
        plan = ENGINE.plan(query)
        print(f"cycle query, {length} atoms, planner: {plan.strategy} (width {plan.width}):")
        timed(
            "engine BCQ (auto plan)",
            lambda q=query, d=database, p=plan: ENGINE.is_satisfiable(q, d, plan=p).value,
        )


def jigsaw_classes() -> None:
    print("\n=== jigsaw queries (unbounded ghw side) ===")
    for rows, cols in ((2, 2), (2, 3), (3, 3)):
        query = cq_generators.jigsaw_query(rows, cols)
        database = cq_generators.planted_database(query, 3, 9, seed=rows * 10 + cols)
        bounds = ghw(query.hypergraph(), separator_budget=2)
        print(f"jigsaw {rows}x{cols} query, ghw >= {bounds.lower}:")
        blind = ENGINE.plan(query, force_strategy=STRATEGY_BACKTRACKING)
        timed(
            "structure-blind BCQ (forced backtracking)",
            lambda q=query, d=database, p=blind: ENGINE.is_satisfiable(q, d, plan=p).value,
        )

        def guided_run(q=query, d=database):
            # A fresh session so the timing includes the decomposition search —
            # the real cost of the GHD route on the unbounded-ghw side.
            fresh = EngineSession()
            plan = fresh.plan(q, force_strategy=STRATEGY_GHD)
            return fresh.is_satisfiable(q, d, plan=plan).value

        timed("GHD-guided BCQ (search + evaluation)", guided_run)


def semantic_side() -> None:
    print("\n=== semantic ghw (Theorem 4.12) ===")
    atoms = [
        Atom("E", ["x0", "x1"]),
        Atom("E", ["x2", "x1"]),
        Atom("E", ["x2", "x3"]),
        Atom("E", ["x0", "x3"]),
    ]
    query = ConjunctiveQuery(atoms, free_variables=[])
    raw = ghw(query.hypergraph())
    semantic = semantic_ghw(query)
    print(f"zigzag 4-cycle query: raw ghw = {raw.upper}, semantic ghw = {semantic.upper}")
    print(f"core has {len(semantic.core.atoms)} atom(s): the class is tractable despite the cyclic syntax")
    syntactic_plan = ENGINE.plan(query)
    semantic_plan = ENGINE.plan(query, use_core=True)
    print(f"planner on the raw query:  {syntactic_plan.strategy}")
    print(f"planner with use_core:     {semantic_plan.strategy}")


def main() -> None:
    bounded_ghw_classes()
    jigsaw_classes()
    semantic_side()


if __name__ == "__main__":
    main()
