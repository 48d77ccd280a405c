"""Hash-sharded execution: partition-aware evaluation behind the session.

A query whose every atom contains one shared **shard variable** ``x`` can be
evaluated shard-at-a-time: partition every relation on the column where
``x`` occurs, routing each row by the interned id of its value there modulo
the shard count (:meth:`~repro.cq.database.Database.partition`).  The
database's value interner gives equal values one id, so every fact carrying
a value ``v`` in its partition column lies in one shard, ``shard(v)``, and
any satisfying assignment ``a`` — which uses only facts carrying the value
``a(x)`` in that column — is confined to the shard ``shard(a(x))``.  Hence

* ``answers(q, D) = union over s of answers(q, D_s)`` (exact for every
  query: the shard databases jointly contain every fact);
* when ``x`` is a *free* variable the per-shard answer sets are **disjoint**
  (the ``x`` column of an answer tuple determines its shard), so counts add:
  ``|q(D)| = sum over s of |q(D_s)|``;
* satisfiability is the disjunction of the per-shard questions.

Atoms that do *not* contain the shard variable are handled with the classic
**broadcast** fallback: their relations are replicated into every shard, so
the containment argument above still goes through (partitioned atoms pin the
assignment to ``shard(a(x))``; broadcast facts are available everywhere).
When no relation can be partitioned consistently, the ladder bottoms out at
**single-shard** execution — the unsharded plan, recorded as such.

The decision ladder is computed once per (query, shard variable, shard
count) as a :class:`ShardingSpec` and surfaced in
``EvalResult.timings["sharding"]`` (its ``mode`` and ``rationale``), so a
caller can always ask which mode ran and why.  The executing layer lives on
:class:`~repro.engine.session.EngineSession` (``answer(..., shards=N)``);
this module is the pure decision + partitioning logic.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cq.database import Database
from repro.cq.query import ConjunctiveQuery

SHARD_MODE_COPARTITIONED = "co-partitioned"
SHARD_MODE_BROADCAST = "broadcast"
SHARD_MODE_SINGLE = "single-shard"


def choose_shard_variable(query: ConjunctiveQuery):
    """The default shard variable: the highest-frequency join variable.

    Picks the variable occurring in the most atoms (ties broken by ``repr``
    for determinism) — the variable most likely to co-partition every
    relation, and failing that, the one that minimises the broadcast set.
    The choice reads the query only: a hub value routes to one shard, which
    costs balance, never exactness.  Returns ``None`` when the query has no
    variables (zero-atom or constants-only queries cannot shard).
    """
    occurrences: dict = {}
    for atom in query.atoms:
        for variable in atom.variable_set():
            occurrences[variable] = occurrences.get(variable, 0) + 1
    if not occurrences:
        return None
    best_count = max(occurrences.values())
    candidates = [v for v, count in occurrences.items() if count == best_count]
    return max(candidates, key=repr)


@dataclass(frozen=True)
class ShardingSpec:
    """The sharding decision for one (query, shard variable, shard count).

    ``partition_columns`` maps each co-partitionable relation to the column
    shared by every atom over it where the shard variable occurs;
    ``broadcast_relations`` are replicated to every shard.  ``mode`` is the
    rung of the fallback ladder the decision landed on, and ``rationale``
    says why in prose (the session's sharding record carries both).
    """

    shard_variable: object
    shards: int
    mode: str
    partition_columns: dict
    broadcast_relations: tuple
    rationale: str

    @property
    def is_sharded(self) -> bool:
        return self.mode != SHARD_MODE_SINGLE and self.shards > 1


def sharding_spec(
    query: ConjunctiveQuery, shards: int, shard_variable=None
) -> ShardingSpec:
    """Walk the fallback ladder for ``query``: co-partitioned when every
    relation agrees on a shard column, broadcast when at least one does,
    single-shard otherwise.

    A relation is *co-partitionable* when every atom over it contains the
    shard variable at some common position (self-joins must agree on the
    column, otherwise one tuple would need to live in two shards).
    """
    if shards < 1:
        raise ValueError("shards must be >= 1")
    if shard_variable is None:
        shard_variable = choose_shard_variable(query)
    elif shard_variable not in query.variables:
        # Validated before any fallback so a typo'd variable raises on every
        # query shape (including zero-atom queries and shards=1).
        raise ValueError(
            f"shard variable {shard_variable!r} does not occur in the query"
        )
    if shards == 1 or shard_variable is None or not query.atoms:
        reason = (
            "one shard requested"
            if shards == 1
            else "no shard variable (query has no variables)"
        )
        return ShardingSpec(
            shard_variable, shards, SHARD_MODE_SINGLE, {}, (), reason
        )
    # Per relation: the intersection over its atoms of the positions where
    # the shard variable occurs.  Non-empty intersection => co-partitionable.
    shared_positions: dict = {}
    for atom in query.atoms:
        positions = frozenset(
            index
            for index, term in enumerate(atom.terms)
            if term == shard_variable
        )
        if atom.relation in shared_positions:
            shared_positions[atom.relation] &= positions
        else:
            shared_positions[atom.relation] = positions
    partition_columns = {
        relation: min(positions)
        for relation, positions in shared_positions.items()
        if positions
    }
    broadcast = tuple(
        sorted(relation for relation in shared_positions if relation not in partition_columns)
    )
    if not partition_columns:
        return ShardingSpec(
            shard_variable, shards, SHARD_MODE_SINGLE, {}, (),
            f"shard variable {shard_variable!r} pins no relation "
            "(absent or at inconsistent self-join positions): single-shard fallback",
        )
    if not broadcast:
        return ShardingSpec(
            shard_variable, shards, SHARD_MODE_COPARTITIONED,
            partition_columns, (),
            f"every atom contains {shard_variable!r}: all "
            f"{len(partition_columns)} relations hash-partitioned, "
            "shards answer-disjoint",
        )
    return ShardingSpec(
        shard_variable, shards, SHARD_MODE_BROADCAST,
        partition_columns, broadcast,
        f"{len(partition_columns)} relations hash-partitioned on "
        f"{shard_variable!r}, {len(broadcast)} without it broadcast to every shard",
    )


class ShardedDatabase:
    """A database hash-partitioned for one query's sharded execution.

    Holds the per-shard :class:`~repro.cq.database.Database` pieces plus the
    :class:`ShardingSpec` that produced them.  Only the relations the query
    mentions are materialised into the shards (a shared serving database may
    hold thousands of unrelated relations); a query relation missing from
    the source database stays missing in every shard, which the executor's
    missing-relation fast path already answers as empty.
    """

    def __init__(self, spec: ShardingSpec, shards: list[Database]) -> None:
        self.spec = spec
        self.shards = shards

    def __len__(self) -> int:
        return len(self.shards)

    def __iter__(self):
        return iter(self.shards)

    def __repr__(self) -> str:
        return (
            f"ShardedDatabase(mode={self.spec.mode!r}, shards={len(self.shards)}, "
            f"variable={self.spec.shard_variable!r})"
        )

    @classmethod
    def partition(
        cls,
        database: Database,
        query: ConjunctiveQuery,
        shards: int,
        shard_variable=None,
        spec: ShardingSpec | None = None,
        store=None,
    ) -> "ShardedDatabase":
        """Partition ``database`` for ``query`` along the fallback ladder.

        On the single-shard rung the one "shard" is the database itself
        (no copy): sharded execution degrades gracefully to the plain path.
        A caller that already walked the ladder passes its ``spec`` to skip
        recomputing it, and the columnar ``store`` it routes by
        (:meth:`~repro.cq.database.Database.partition`), to extend the cut
        later through the same ids (the session's sharded path does both).
        """
        if spec is None:
            spec = sharding_spec(query, shards, shard_variable=shard_variable)
        if not spec.is_sharded:
            return cls(spec, [database])
        for atom in query.atoms:
            if database.has_relation(atom.relation):
                database.atom_relation(atom)  # refuses an arity mismatch
        present = {
            name: column
            for name, column in spec.partition_columns.items()
            if database.has_relation(name)
        }
        broadcast = tuple(
            name for name in spec.broadcast_relations if database.has_relation(name)
        )
        pieces = database.partition(
            present, spec.shards, broadcast=broadcast, store=store
        )
        return cls(spec, pieces)

    def total_tuples(self) -> int:
        return sum(piece.total_tuples() for piece in self.shards)
