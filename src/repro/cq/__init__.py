"""Conjunctive queries, databases, and query answering.

This subpackage is the query-answering substrate the paper's theorems are
about: Boolean conjunctive query answering (BCQ), answer enumeration, and
answer counting (#CQ), each available both through a generic backtracking
solver (the ground-truth baseline) and through decomposition-guided evaluation
(the Proposition 2.2 / 4.14 upper bounds that make bounded ghw classes
tractable), which runs on the columnar kernel of :mod:`repro.cq.columnar`.
"""

from repro.cq.query import Atom, ConjunctiveQuery
from repro.cq.database import Database, Relation
from repro.cq.homomorphism import (
    boolean_answer,
    count_answers,
    enumerate_answers,
)
from repro.cq.yannakakis import yannakakis_boolean, yannakakis_full
from repro.cq.decomposition_eval import (
    decomposition_boolean_answer,
    decomposition_count_answers,
    decomposition_enumerate_answers,
)
from repro.cq.core import core_of, find_homomorphism_between_queries, queries_equivalent
from repro.cq.semantic_width import semantic_ghw
from repro.cq.bags import DecompositionMismatchError
from repro.cq import generators
from repro.cq import workloads

# The unified engine (analysis -> plan -> execute) is the documented public
# entry point; the per-strategy functions above remain as backends.  The
# engine sits *above* this package, so its names are re-exported lazily
# (PEP 562) — an eager import here would create a cq -> engine -> cq cycle.
_ENGINE_EXPORTS = frozenset(
    {"EvalResult", "Plan", "answer", "count", "is_satisfiable", "plan_query"}
)


def __getattr__(name):
    if name in _ENGINE_EXPORTS:
        from repro import engine as _engine

        return getattr(_engine, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "Atom",
    "ConjunctiveQuery",
    "Database",
    "Relation",
    "boolean_answer",
    "count_answers",
    "enumerate_answers",
    "yannakakis_boolean",
    "yannakakis_full",
    "decomposition_boolean_answer",
    "decomposition_count_answers",
    "decomposition_enumerate_answers",
    "core_of",
    "find_homomorphism_between_queries",
    "queries_equivalent",
    "semantic_ghw",
    "DecompositionMismatchError",
    "generators",
    "EvalResult",
    "Plan",
    "answer",
    "count",
    "is_satisfiable",
    "plan_query",
]
