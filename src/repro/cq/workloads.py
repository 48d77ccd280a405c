"""Seeded scenario workloads spanning the paper's tractability regimes.

The tests, benchmarks, and examples all need the same thing: labelled
(query, database) suites that cover *every* dispatch route of the unified
engine, reproducibly from a seed.  One generator lives here so they stay in
sync.  Four regimes mirror the paper's complexity landscape:

* :data:`REGIME_ACYCLIC` — GYO-acyclic queries (chains, stars, random
  acyclic hypergraphs): the direct-Yannakakis route;
* :data:`REGIME_BOUNDED_GHW` — cyclic queries with small certified ghw
  (cycles, triangles, small jigsaws): the GHD-guided route (Prop. 2.2);
* :data:`REGIME_CORE_REDUCIBLE` — syntactically wide queries whose *core*
  is small (alternating-orientation cycles, redundant-atom folds): the
  semantic-width route (Section 4.3) — tractable despite their syntax;
* :data:`REGIME_HARD` — instances with no decomposition within the
  planner's width limit (wide cliques) or near-threshold random databases:
  the indexed-backtracking fallback, where no structure bound applies;
* :data:`REGIME_SHARDED` — queries built around a designated high-frequency
  join variable (``Scenario.shard_variable``): hub cycles and stars whose
  hub occurs in *every* atom (the co-partitioned rung of the sharding
  ladder) plus a hub-chain where it occurs in only some atoms (the
  broadcast rung).  The differential harness runs these — and every other
  regime — through the sharded execution path at several shard counts;
* :data:`REGIME_SKEWED` — the same query shapes over *skewed* data:
  Zipf-distributed columns and hub-heavy databases whose join keys
  concentrate on a few hot values.  Uniform-independence cardinality
  estimates are wrong here, so these scenarios exercise the exact
  degree-vector estimates of the cost-based join ordering
  (:mod:`repro.cq.statistics`) and the sharded path on hub-concentrated
  keys.

Databases per scenario deliberately span the satisfiability spectrum —
random, planted (guaranteed satisfiable), unsatisfiable-by-construction, and
proper-colouring databases with predictable counts — so Boolean,
enumeration, and counting semantics are all exercised on both empty and
non-empty answer sets.

Beyond the static scenarios, :func:`append_schedule` turns any scenario
into an **append-heavy** replay: deterministic growth batches (drawn from
the database's own column values, plus fresh values) that the incremental
differential pass feeds through ``add_fact`` between standing-query
refreshes — semi-naive refresh must equal a from-scratch evaluation after
every batch.

Everything is deterministic in ``(seed, size, regime)``: the differential
harness can be pointed at a fresh seed every CI run and still reproduce any
failure locally.
"""

from __future__ import annotations

import random
from collections.abc import Iterable
from dataclasses import dataclass

from repro.cq import generators as cqgen
from repro.cq.database import Database, Relation
from repro.cq.query import Atom, Constant, ConjunctiveQuery

REGIME_ACYCLIC = "acyclic"
REGIME_BOUNDED_GHW = "bounded-ghw"
REGIME_CORE_REDUCIBLE = "core-reducible"
REGIME_HARD = "hard"
REGIME_SHARDED = "sharded"
REGIME_SKEWED = "skewed"
ALL_REGIMES = (
    REGIME_ACYCLIC,
    REGIME_BOUNDED_GHW,
    REGIME_CORE_REDUCIBLE,
    REGIME_HARD,
    REGIME_SHARDED,
    REGIME_SKEWED,
)

#: (domain size, tuples per relation) per workload size.  "small" keeps the
#: naive reference solver fast enough to cross-check every scenario; the
#: larger sizes are for benchmarks, where only the optimised routes run.
SIZES = {
    "small": (5, 16),
    "medium": (8, 60),
    "large": (12, 200),
}


@dataclass(frozen=True, eq=False)
class Scenario:
    """One labelled workload instance: a query, a database, and provenance.

    ``shard_variable`` is the designated high-frequency join variable for
    sharded execution — set for the :data:`REGIME_SHARDED` scenarios, where
    the generator knows the hub by construction; ``None`` elsewhere (the
    engine's :func:`~repro.engine.sharding.choose_shard_variable` picks one).
    """

    name: str
    regime: str
    query: ConjunctiveQuery
    database: Database
    seed: int
    description: str
    shard_variable: str | None = None

    def __repr__(self) -> str:
        return f"Scenario({self.name!r}, regime={self.regime!r})"


def _sub_rng(seed: int, size: str, regime: str) -> random.Random:
    # Each regime draws from its own stream, so selecting a subset of
    # regimes never shifts another regime's scenarios for the same seed.
    return random.Random(f"workload|{seed}|{size}|{regime}")


def _databases(query, rng, domain, tuples, colours=3):
    """The database spectrum for one query: satisfiable and not, plus the
    predictable proper-colouring instance for counting anchors."""
    return [
        ("random", cqgen.random_database(query, domain, tuples, seed=rng.randrange(2**30))),
        (
            "planted",
            cqgen.planted_database(
                query, domain, tuples, seed=rng.randrange(2**30), planted_solutions=2
            ),
        ),
        (
            "unsat",
            cqgen.unsatisfiable_database(query, domain, tuples, seed=rng.randrange(2**30)),
        ),
        ("colour", cqgen.grid_constraint_database(query, colours=colours)),
    ]


def _skewed_databases(query, rng, domain, tuples, colours=3):
    """The database spectrum for a skewed scenario: Zipf-distributed and
    hub-concentrated instances replace the uniform/colour ones; planted and
    unsatisfiable stay, so both answer polarities are still exercised."""
    return [
        ("zipf", cqgen.zipf_database(query, domain, tuples, seed=rng.randrange(2**30))),
        ("hub", cqgen.hub_database(query, domain, tuples, seed=rng.randrange(2**30))),
        (
            "planted",
            cqgen.planted_database(
                query, domain, tuples, seed=rng.randrange(2**30), planted_solutions=2
            ),
        ),
        (
            "unsat",
            cqgen.unsatisfiable_database(query, domain, tuples, seed=rng.randrange(2**30)),
        ),
    ]


def _random_acyclic_hypergraph(rng):
    from repro.hypergraphs.generators import random_acyclic_hypergraph

    return random_acyclic_hypergraph(
        num_edges=rng.randint(4, 6), max_rank=3, seed=rng.randrange(2**30)
    )


def _acyclic_queries(rng) -> list[tuple[str, ConjunctiveQuery]]:
    chain = cqgen.chain_query(rng.randint(3, 5))
    last = f"x{len(chain.atoms)}"
    star = cqgen.star_query(rng.randint(3, 5))
    return [
        ("chain-full", chain),
        ("chain-projected", chain.project(["x0", last])),
        ("star-boolean", star.as_boolean()),
        ("random-acyclic", cqgen.query_from_hypergraph(_random_acyclic_hypergraph(rng))),
    ]


def _bounded_ghw_queries(rng) -> list[tuple[str, ConjunctiveQuery]]:
    length = rng.choice([4, 5, 6])
    cycle = cqgen.cycle_query(length)
    return [
        ("cycle-full", cycle),
        ("cycle-projected", cycle.project(["x0"])),
        ("cycle-boolean", cqgen.cycle_query(rng.choice([4, 5])).as_boolean()),
        ("triangle", cqgen.clique_query(3)),
        ("jigsaw22", cqgen.jigsaw_query(2, 2)),
    ]


def _core_reducible_queries(rng) -> list[tuple[str, ConjunctiveQuery]]:
    # Redundant-atom fold: R(x, y) AND R(x, z) with z existential — the core
    # drops the second atom.
    fold = ConjunctiveQuery(
        [Atom("R", ["x", "y"]), Atom("R", ["x", "z"])], free_variables=["x", "y"]
    )
    return [
        ("zigzag-boolean", cqgen.zigzag_cycle_query(rng.choice([4, 6, 8]))),
        ("zigzag-free", cqgen.zigzag_cycle_query(6, free_variables=["x0", "x1"])),
        ("redundant-fold", fold),
    ]


def _hard_queries(rng) -> list[tuple[str, ConjunctiveQuery]]:
    # clique7's certified ghw upper bound (4) exceeds the default width
    # limit (3): the planner must fall back to indexed backtracking.  The
    # near-threshold cycle stays GHD-plannable but makes the *instance* do
    # real search work.
    return [
        ("clique7", cqgen.clique_query(7)),
        ("clique7-boolean", cqgen.clique_query(7).as_boolean()),
        ("threshold-cycle", cqgen.cycle_query(6).project(["x0"])),
    ]


def _sharded_queries(rng) -> list[tuple]:
    """Hub-centric queries for the sharded regime.  Three-element entries
    carry the designated shard variable (the hub every scenario is built
    around); the hub chain deliberately keeps the hub out of its tail atoms
    so the broadcast rung of the fallback ladder is exercised too."""
    wheel = cqgen.hub_cycle_query(rng.choice([3, 4]))
    hub_chain = ConjunctiveQuery(
        [
            Atom("C0", ["h", "x0"]),
            Atom("C1", ["x0", "x1"]),
            Atom("C2", ["x1", "x2"]),
        ]
    )
    return [
        ("hub-cycle-full", wheel, "h"),
        ("hub-cycle-projected", cqgen.hub_cycle_query(4).project(["h", "x0"]), "h"),
        ("hub-cycle-boolean", cqgen.hub_cycle_query(rng.choice([3, 4])).as_boolean(), "h"),
        ("hub-star", cqgen.star_query(rng.randint(3, 5)), "c"),
        ("hub-chain-broadcast", hub_chain, "h"),
    ]


def _skewed_queries(rng) -> list[tuple]:
    """Query shapes where skew actually bites: a triangle (three-relation
    join pool — the cost-based ordering has a genuine choice to make), a
    star, and a wheel (hub in every atom, so the sharded path hashes the hot
    hub values and must stay exact on the unbalanced pieces)."""
    return [
        ("skew-triangle", cqgen.clique_query(3)),
        ("skew-star", cqgen.star_query(rng.randint(3, 5)), "c"),
        ("skew-wheel", cqgen.hub_cycle_query(3), "h"),
    ]


_REGIME_QUERIES = {
    REGIME_ACYCLIC: _acyclic_queries,
    REGIME_BOUNDED_GHW: _bounded_ghw_queries,
    REGIME_CORE_REDUCIBLE: _core_reducible_queries,
    REGIME_HARD: _hard_queries,
    REGIME_SHARDED: _sharded_queries,
    REGIME_SKEWED: _skewed_queries,
}


def generate_workload(
    seed: int = 0,
    regimes: Iterable[str] = ALL_REGIMES,
    size: str = "small",
) -> list[Scenario]:
    """The labelled scenario suite for ``seed``: every regime × query shape ×
    database flavour, deterministically."""
    if size not in SIZES:
        raise ValueError(f"unknown size {size!r}; choose from {sorted(SIZES)}")
    domain, tuples = SIZES[size]
    scenarios = []
    for regime in regimes:
        try:
            build = _REGIME_QUERIES[regime]
        except KeyError:
            raise ValueError(
                f"unknown regime {regime!r}; choose from {ALL_REGIMES}"
            ) from None
        rng = _sub_rng(seed, size, regime)
        for entry in build(rng):
            # Regime builders emit (name, query) or — for the sharded
            # regime — (name, query, shard variable).
            query_name, query = entry[0], entry[1]
            shard_variable = entry[2] if len(entry) > 2 else None
            # Wide cliques get a smaller database: their atom count multiplies
            # the naive solver's per-node scan cost in the cross-checks.
            shrink = 2 if regime == REGIME_HARD and "clique" in query_name else 1
            databases = _skewed_databases if regime == REGIME_SKEWED else _databases
            for db_name, database in databases(
                query, rng, max(3, domain // shrink), max(6, tuples // shrink)
            ):
                scenarios.append(
                    Scenario(
                        name=f"{regime}/{query_name}/{db_name}/s{seed}",
                        regime=regime,
                        query=query,
                        database=database,
                        seed=seed,
                        description=(
                            f"{query_name} over a {db_name} database "
                            f"(size={size}, seed={seed})"
                        ),
                        shard_variable=shard_variable,
                    )
                )
    return scenarios


# ----------------------------------------------------------------------
# Append-heavy replay: deterministic growth batches for ANY scenario
# ----------------------------------------------------------------------
def append_schedule(
    database: Database,
    batches: int = 3,
    fraction: float = 0.05,
    seed: int = 0,
) -> list[dict]:
    """Deterministic append batches for an append-heavy replay of
    ``database``: ``batches`` dicts of relation name → rows to feed through
    ``add_fact`` (or ``POST /facts``) between refreshes.

    Each batch appends about ``fraction`` of every relation's current rows
    (at least one).  Cell values are drawn from the values already seen in
    the same column — so appended rows actually *join* — with a slice of
    fresh values (one past the column's maximum, for integer columns) so
    the interner/dictionary growth paths are exercised too.  Some generated
    rows may duplicate stored rows; the storage layer treats those as
    no-ops, which is itself part of the contract under test.

    Deterministic in ``(database contents, batches, fraction, seed)``; the
    schedule is computed up front, so applying batch ``i`` never changes
    batch ``i+1``.
    """
    if batches < 1:
        raise ValueError("append_schedule needs batches >= 1")
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"fraction must be in (0, 1], got {fraction!r}")
    rng = random.Random(f"appends|{seed}|{batches}|{fraction}")
    columns: dict = {}
    per_batch: dict = {}
    for name, relation in sorted(database.relations.items()):
        if relation.arity == 0:
            continue
        if relation.tuples:
            pools = [sorted({row[i] for row in relation}, key=repr)
                     for i in range(relation.arity)]
        else:
            # An empty relation still grows: small fresh integers, so the
            # relation-appears-later path of every cache layer is replayed.
            pools = [list(range(3)) for _ in range(relation.arity)]
        columns[name] = pools
        per_batch[name] = max(1, int(len(relation.tuples) * fraction))
    schedule = []
    for _ in range(batches):
        batch: dict = {}
        for name, pools in columns.items():
            rows = []
            for _ in range(per_batch[name]):
                row = []
                for pool in pools:
                    if rng.random() < 0.2 and all(
                        isinstance(v, int) and not isinstance(v, bool)
                        for v in pool
                    ):
                        row.append(max(pool) + 1 + rng.randrange(3))
                    else:
                        row.append(rng.choice(pool))
                rows.append(tuple(row))
            batch[name] = rows
        schedule.append(batch)
    return schedule


def apply_appends(database: Database, batch: dict) -> int:
    """Feed one :func:`append_schedule` batch through ``add_fact``; returns
    the number of genuinely new rows (duplicates are storage no-ops)."""
    added = 0
    for name, rows in batch.items():
        relation = database.relation(name)
        before = relation.version
        for row in rows:
            database.add_fact(name, row)
        added += relation.version - before
    return added


# ----------------------------------------------------------------------
# Batches: many queries over ONE database (the answer_many workload)
# ----------------------------------------------------------------------
def _rename_relations(query: ConjunctiveQuery, prefix: str) -> ConjunctiveQuery:
    atoms = [Atom(f"{prefix}{atom.relation}", atom.terms) for atom in query.atoms]
    return ConjunctiveQuery(atoms, free_variables=query.free_variables)


def _rename_variables(query: ConjunctiveQuery, suffix: str) -> ConjunctiveQuery:
    def rename(term):
        return term if isinstance(term, Constant) else f"{term}{suffix}"

    atoms = [
        Atom(atom.relation, [rename(term) for term in atom.terms])
        for atom in query.atoms
    ]
    free = [rename(variable) for variable in query.free_variables]
    return ConjunctiveQuery(atoms, free_variables=free)


def mixed_batch(
    seed: int = 0,
    copies: int = 4,
    size: str = "small",
    regimes: Iterable[str] = ALL_REGIMES,
    distinct: int | None = None,
) -> tuple[list[ConjunctiveQuery], Database]:
    """A serving-engine batch: a shuffled list of queries over one database.

    Every scenario of :func:`generate_workload` (optionally sampled down to
    ``distinct`` scenarios) contributes its query ``copies`` times —
    relations namespaced per scenario so all coexist in the one returned
    database.  Every second copy has its variables renamed, so the batch
    contains structurally-isomorphic-but-not-equal repeats: exactly what
    :meth:`EngineSession.answer_many`'s dedup pass is for.
    """
    if copies < 1:
        raise ValueError("mixed_batch needs copies >= 1")
    rng = random.Random(f"batch|{seed}|{size}|{copies}")
    scenarios = generate_workload(seed, regimes, size)
    if distinct is not None and distinct < len(scenarios):
        scenarios = rng.sample(scenarios, distinct)
    database = Database()
    queries: list[ConjunctiveQuery] = []
    for index, scenario in enumerate(scenarios):
        prefix = f"W{index}_"
        query = _rename_relations(scenario.query, prefix)
        for relation in scenario.database.relations.values():
            database.add_relation(
                Relation(f"{prefix}{relation.name}", relation.arity, relation.tuples)
            )
        for copy_index in range(copies):
            if copy_index % 2:
                queries.append(_rename_variables(query, f"_c{copy_index}"))
            else:
                queries.append(query)
    rng.shuffle(queries)
    return queries, database
