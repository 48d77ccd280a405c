"""Workload generators: queries from hypergraphs and synthetic databases.

The experiments need two ingredients the paper treats abstractly:

* **queries over a given hypergraph** — self-join-free queries with no
  repeated variables whose hypergraph is exactly the given one (the class
  ``Q_J`` used in the Theorem 4.8 hardness argument);
* **databases** — random relations over a small domain, plus *planted*
  databases that are guaranteed to contain at least one solution, so both the
  satisfiable and unsatisfiable regimes can be exercised deterministically.
"""

from __future__ import annotations

import random
from collections.abc import Hashable, Iterable

from repro.cq.database import Database, Relation
from repro.cq.query import Atom, ConjunctiveQuery
from repro.hypergraphs.hypergraph import Hypergraph


def _rng(seed) -> random.Random:
    if isinstance(seed, random.Random):
        return seed
    return random.Random(seed)


# ----------------------------------------------------------------------
# Queries
# ----------------------------------------------------------------------
def query_from_hypergraph(
    hypergraph: Hypergraph,
    relation_prefix: str = "R",
    free_variables: Iterable[Hashable] | None = None,
) -> ConjunctiveQuery:
    """The canonical self-join-free query with the given hypergraph.

    Every edge becomes one atom over a fresh relation symbol, with the edge's
    vertices (in deterministic order) as its variables; the query is full by
    default.  This is exactly the query class the lower-bound machinery works
    with (no self-joins, no repeated variables in an atom).
    """
    atoms = []
    for index, edge in enumerate(hypergraph.edge_list()):
        variables = sorted(edge, key=repr)
        atoms.append(Atom(f"{relation_prefix}{index}", variables))
    return ConjunctiveQuery(atoms, free_variables=free_variables)


def chain_query(length: int, arity: int = 2) -> ConjunctiveQuery:
    """A chain (path) query ``R0(x0, x1) AND R1(x1, x2) AND ...``."""
    if length < 1:
        raise ValueError("chain_query requires length >= 1")
    atoms = []
    for i in range(length):
        variables = [f"x{i}", f"x{i + 1}"]
        for k in range(arity - 2):
            variables.append(f"p{i}_{k}")
        atoms.append(Atom(f"R{i}", variables))
    return ConjunctiveQuery(atoms)


def cycle_query(length: int) -> ConjunctiveQuery:
    """A cycle query of the given length (ghw 2, degree 2)."""
    if length < 3:
        raise ValueError("cycle_query requires length >= 3")
    atoms = [
        Atom(f"R{i}", [f"x{i}", f"x{(i + 1) % length}"])
        for i in range(length)
    ]
    return ConjunctiveQuery(atoms)


def star_query(branches: int) -> ConjunctiveQuery:
    """A star query: ``R_i(c, x_i)`` for every branch (acyclic)."""
    if branches < 1:
        raise ValueError("star_query requires at least one branch")
    atoms = [Atom(f"R{i}", ["c", f"x{i}"]) for i in range(branches)]
    return ConjunctiveQuery(atoms)


def jigsaw_query(rows: int, cols: int) -> ConjunctiveQuery:
    """The canonical query over the ``rows x cols`` jigsaw hypergraph —
    the unbounded-ghw, degree-2, arity-<=-4 family at the heart of
    Theorem 4.8."""
    from repro.hypergraphs.generators import jigsaw

    return query_from_hypergraph(jigsaw(rows, cols), relation_prefix="J")


def zigzag_cycle_query(
    length: int,
    relation: str = "E",
    free_variables: Iterable[Hashable] | None = (),
) -> ConjunctiveQuery:
    """An alternating-orientation cycle over a *single* relation: the
    signature high-width-but-semantically-tractable query.

    The hypergraph is the ``length``-cycle (cyclic, ghw 2), but the
    alternation makes every second vertex fold onto ``x0``/``x1``, so the
    core is the single atom ``E(x0, x1)`` — acyclic.  Planning with
    ``use_core=True`` therefore turns a GHD-guided plan into direct
    Yannakakis (the Section 4.3 semantic-width route).

    ``length`` must be even and at least 4 (odd alternation would repeat a
    variable in the closing atom).  Free variables may only mention ``x0`` /
    ``x1`` — anything else (including ``None``, the full query) would pin a
    foldable vertex and break the single-atom-core invariant.
    """
    if length < 4 or length % 2:
        raise ValueError("zigzag_cycle_query requires an even length >= 4")
    if free_variables is None or not set(free_variables) <= {"x0", "x1"}:
        raise ValueError(
            "free variables of a zigzag cycle must be within {x0, x1} "
            "(a full zigzag query would be its own core)"
        )
    atoms = []
    for i in range(length):
        head, tail = f"x{i}", f"x{(i + 1) % length}"
        atoms.append(
            Atom(relation, [head, tail] if i % 2 == 0 else [tail, head])
        )
    return ConjunctiveQuery(atoms, free_variables=free_variables)


def hub_cycle_query(length: int, hub: str = "h") -> ConjunctiveQuery:
    """A wheel: a cycle whose every atom also contains the ``hub`` variable —
    ``H0(h, x0, x1) AND H1(h, x1, x2) AND ... AND H_{n-1}(h, x_{n-1}, x0)``.

    The signature *sharded-friendly* query: the hub occurs in every atom (at
    a fixed position), so hash-partitioning every relation on the hub column
    makes the shards answer-disjoint — the co-partitioned rung of the
    sharding ladder with no broadcast at all.  The hypergraph is cyclic
    (contracting the hub leaves the ``length``-cycle), so the query still
    exercises the GHD-guided route, where per-shard bag materialisation is
    genuinely cheaper than one big instance.
    """
    if length < 3:
        raise ValueError("hub_cycle_query requires length >= 3")
    atoms = [
        Atom(f"H{i}", [hub, f"x{i}", f"x{(i + 1) % length}"])
        for i in range(length)
    ]
    return ConjunctiveQuery(atoms)


def clique_query(size: int) -> ConjunctiveQuery:
    """The ``K_size`` clique query (bounded arity, treewidth ``size - 1``)."""
    if size < 2:
        raise ValueError("clique_query requires size >= 2")
    atoms = []
    index = 0
    for i in range(size):
        for j in range(i + 1, size):
            atoms.append(Atom(f"E{index}", [f"x{i}", f"x{j}"]))
            index += 1
    return ConjunctiveQuery(atoms)


# ----------------------------------------------------------------------
# Databases
# ----------------------------------------------------------------------
def random_database(
    query: ConjunctiveQuery,
    domain_size: int,
    tuples_per_relation: int,
    seed=0,
) -> Database:
    """A random database matching the query's schema."""
    rng = _rng(seed)
    database = Database()
    domain = list(range(domain_size))
    for atom in query.atoms:
        if database.has_relation(atom.relation):
            continue
        relation = Relation(atom.relation, atom.arity)
        for _ in range(tuples_per_relation):
            relation.add(tuple(rng.choice(domain) for _ in range(atom.arity)))
        database.add_relation(relation)
    return database


def zipf_database(
    query: ConjunctiveQuery,
    domain_size: int,
    tuples_per_relation: int,
    seed=0,
    exponent: float = 1.2,
) -> Database:
    """A random database whose every column is Zipf-distributed.

    Value ``r`` of the domain (1-indexed rank) is drawn with probability
    proportional to ``1 / r**exponent``, so a handful of head values carry
    most of the mass — the canonical skewed workload.  Uniform-independence
    cardinality estimates are badly wrong here, which is why the cost-based
    join ordering reads exact degree vectors instead.
    """
    if domain_size < 1:
        raise ValueError("zipf_database requires domain_size >= 1")
    rng = _rng(seed)
    database = Database()
    domain = list(range(domain_size))
    cumulative: list[float] = []
    total = 0.0
    for rank in range(1, domain_size + 1):
        total += 1.0 / rank**exponent
        cumulative.append(total)
    for atom in query.atoms:
        if database.has_relation(atom.relation):
            continue
        relation = Relation(atom.relation, atom.arity)
        for _ in range(tuples_per_relation):
            relation.add(
                tuple(rng.choices(domain, cum_weights=cumulative, k=atom.arity))
            )
        database.add_relation(relation)
    return database


def hub_database(
    query: ConjunctiveQuery,
    domain_size: int,
    tuples_per_relation: int,
    seed=0,
    hub_variables: Iterable[Hashable] | None = None,
    hot_values: int = 2,
    hot_fraction: float = 0.9,
) -> Database:
    """A database concentrating the *hub* columns on a few hot values.

    Every column bound to a hub variable draws from ``hot_values`` designated
    hot domain values with probability ``hot_fraction`` (uniform otherwise);
    non-hub columns stay uniform.  ``hub_variables=None`` targets the query's
    highest-degree variables — the join columns where skew actually hurts.
    This is the hub-heavy half of the skewed regime: join keys so
    concentrated that hash-partitioning on them piles most of the data onto
    one shard.
    """
    if not 0.0 <= hot_fraction <= 1.0:
        raise ValueError(f"hot_fraction must be in [0, 1], got {hot_fraction!r}")
    rng = _rng(seed)
    database = Database()
    domain = list(range(domain_size))
    hot = domain[: max(1, min(hot_values, domain_size))]
    if hub_variables is None:
        occurrences: dict = {}
        for atom in query.atoms:
            for variable in atom.variables():
                occurrences[variable] = occurrences.get(variable, 0) + 1
        top = max(occurrences.values(), default=0)
        hubs = {v for v, count in occurrences.items() if count == top}
    else:
        hubs = set(hub_variables)
    for atom in query.atoms:
        if database.has_relation(atom.relation):
            continue
        relation = Relation(atom.relation, atom.arity)
        hub_positions = {
            index
            for index, term in enumerate(atom.terms)
            if not hasattr(term, "value") and term in hubs
        }
        for _ in range(tuples_per_relation):
            row = tuple(
                rng.choice(hot)
                if index in hub_positions and rng.random() < hot_fraction
                else rng.choice(domain)
                for index in range(atom.arity)
            )
            relation.add(row)
        database.add_relation(relation)
    return database


def planted_database(
    query: ConjunctiveQuery,
    domain_size: int,
    tuples_per_relation: int,
    seed=0,
    planted_solutions: int = 1,
) -> Database:
    """A random database guaranteed to satisfy the query.

    ``planted_solutions`` random assignments of the query variables are
    sampled and the corresponding ground atoms inserted, then random noise
    tuples are added up to the requested size.
    """
    rng = _rng(seed)
    database = random_database(query, domain_size, tuples_per_relation, seed=rng)
    domain = list(range(domain_size))
    for _ in range(max(1, planted_solutions)):
        assignment = {v: rng.choice(domain) for v in query.variables}
        for atom in query.atoms:
            row = tuple(
                term.value if hasattr(term, "value") else assignment[term]
                for term in atom.terms
            )
            database.add_fact(atom.relation, row)
    return database


def unsatisfiable_database(
    query: ConjunctiveQuery,
    domain_size: int,
    tuples_per_relation: int,
    seed=0,
) -> Database:
    """A database that cannot satisfy the query.

    One relation of the query is split off onto a private part of the domain,
    so no joint assignment can satisfy all atoms simultaneously.  The split
    only works for a relation appearing in exactly *one* atom that shares a
    variable with the rest of the query — shifting a self-joined relation
    would shift every one of its atoms coherently and can leave the query
    satisfiable.  When no atom qualifies (single-relation self-join queries,
    variable-disjoint queries), the first relation is left empty instead,
    which is unsatisfiable for any query that mentions it.
    """
    rng = _rng(seed)
    database = Database()
    domain = list(range(domain_size))
    shifted = [value + domain_size for value in domain]
    atoms = list(query.atoms)
    relation_occurrences: dict = {}
    for atom in atoms:
        relation_occurrences[atom.relation] = relation_occurrences.get(atom.relation, 0) + 1
    shared_index = None
    for index, atom in enumerate(atoms):
        if relation_occurrences[atom.relation] != 1:
            continue
        others = set()
        for other_index, other in enumerate(atoms):
            if other_index != index:
                others.update(other.variables())
        if set(atom.variables()) & others:
            shared_index = index
            break
    for index, atom in enumerate(atoms):
        if database.has_relation(atom.relation):
            continue
        relation = Relation(atom.relation, atom.arity)
        use_domain = shifted if index == shared_index else domain
        if shared_index is None and index == 0:
            database.add_relation(relation)
            continue
        for _ in range(tuples_per_relation):
            relation.add(tuple(rng.choice(use_domain) for _ in range(atom.arity)))
        database.add_relation(relation)
    return database


def grid_constraint_database(query: ConjunctiveQuery, colours: int, seed=0) -> Database:
    """A "proper colouring"-style database: every relation contains all tuples
    over ``colours`` values whose adjacent positions differ.

    On cycle/grid/jigsaw queries this produces instances whose solution counts
    have predictable structure (proper colourings), which the counting
    experiments use as a sanity anchor.
    """
    database = Database()
    for atom in query.atoms:
        if database.has_relation(atom.relation):
            continue
        relation = Relation(atom.relation, atom.arity)
        _fill_distinct_adjacent(relation, colours)
        database.add_relation(relation)
    return database


def _fill_distinct_adjacent(relation: Relation, colours: int) -> None:
    def rows(prefix: tuple) -> None:
        if len(prefix) == relation.arity:
            relation.add(prefix)
            return
        for value in range(colours):
            if prefix and value == prefix[-1]:
                continue
            rows(prefix + (value,))

    rows(())
