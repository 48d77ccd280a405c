"""repro — a reproduction of "The Complexity of Conjunctive Queries with Degree 2".

The package is organised by subsystem (see ``DESIGN.md`` for the full map):

* :mod:`repro.hypergraphs` — hypergraphs, graphs, duals, reduction, generators;
* :mod:`repro.widths` — tree decompositions, treewidth, edge covers, GHDs,
  generalised / fractional hypertree width, balanced separators;
* :mod:`repro.dilutions` — the paper's hypergraph dilutions (Definition 3.1);
* :mod:`repro.minors` — graph minors, grid minors, expressive minors;
* :mod:`repro.jigsaws` — jigsaws, pre-jigsaws, the Theorem 4.7 pipeline;
* :mod:`repro.structure` — constructive Lemmas 4.4 and 4.6;
* :mod:`repro.cq` — conjunctive queries, databases, solvers, counting, cores;
* :mod:`repro.engine` — the unified query engine: cached structural
  analysis, the strategy planner, and the executor behind
  ``answer`` / ``is_satisfiable`` / ``count``;
* :mod:`repro.reductions` — the Theorem 3.4 / 4.15 instance reductions;
* :mod:`repro.benchdata` — the HyperBench-substitute corpus behind Table 1.
"""

from repro.hypergraphs import Hypergraph, Graph
from repro.hypergraphs import generators as hypergraph_generators
from repro.widths import (
    GeneralizedHypertreeDecomposition,
    TreeDecomposition,
    ghw,
    treewidth,
)
from repro.dilutions import (
    DeleteSubedge,
    DeleteVertex,
    DilutionSequence,
    MergeOnVertex,
    find_dilution_sequence,
    is_dilution_of,
)
from repro.jigsaws import dilute_to_jigsaw, jigsaw
from repro.cq import (
    Atom,
    ConjunctiveQuery,
    Database,
    Relation,
    boolean_answer,
    count_answers,
    decomposition_boolean_answer,
    decomposition_count_answers,
    enumerate_answers,
)
from repro.reductions import reduce_along_dilution

# The unified query engine: repro.engine.answer / is_satisfiable / count is
# the documented public entry point for query evaluation.
from repro import engine
from repro.engine import (
    EngineSession,
    EvalResult,
    Plan,
    answer,
    answer_many,
    count,
    is_satisfiable,
    plan_query,
)

__version__ = "1.0.0"

__all__ = [
    "Hypergraph",
    "Graph",
    "hypergraph_generators",
    "TreeDecomposition",
    "GeneralizedHypertreeDecomposition",
    "ghw",
    "treewidth",
    "DilutionSequence",
    "DeleteVertex",
    "DeleteSubedge",
    "MergeOnVertex",
    "find_dilution_sequence",
    "is_dilution_of",
    "jigsaw",
    "dilute_to_jigsaw",
    "Atom",
    "ConjunctiveQuery",
    "Database",
    "Relation",
    "boolean_answer",
    "enumerate_answers",
    "count_answers",
    "decomposition_boolean_answer",
    "decomposition_count_answers",
    "reduce_along_dilution",
    "engine",
    "EngineSession",
    "EvalResult",
    "Plan",
    "answer",
    "answer_many",
    "count",
    "is_satisfiable",
    "plan_query",
    "__version__",
]
