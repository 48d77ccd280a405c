"""The in-process workloads: ``cyclic_analytics`` and ``append_refresh``.

Each workload is a class built from the run's seed.  ``setup()`` makes the
inputs and warms what a long-lived caller would have warm (timed as
``setup_s``); ``run(seconds, tracer)`` is the measured loop and returns an
:class:`Outcome`; ``check(outcome)`` compares every distinct result against
an independent path, untimed, after the measured loop.  The program is
driven only through its public API: ``EngineSession``,
``Database.add_fact`` and ``IncrementalView.refresh``.

Every operation is followed by its *reference job*: a direct plain-Python
evaluation of comparable work on the same data (``oracles.py``), timed by
:func:`direct`.  The shared machine's speed drifts by up to a factor of
two between minutes, and an operation and the reference run right after
it slow down alike, so an operation's CPU time relative to its
reference's is steady where its time in milliseconds is not.  CPU time,
not wall time, because the hypervisor also takes the cores away for up
to a third of the time in some minutes; that stalls a server and its
client waiting on each other more than it stalls one computing thread,
and CPU time does not count it.
"""

from __future__ import annotations

import gc
import random
import time
from collections import defaultdict
from dataclasses import dataclass, field

from repro.cq import generators as cqgen
from repro.cq.database import Database, Relation
from repro.cq.query import Atom, ConjunctiveQuery, Constant
from repro.engine.session import EngineSession

import oracles


@dataclass
class Outcome:
    """What one measured loop did."""

    #: Per-operation latency in seconds (wall time).
    latencies: list = field(default_factory=list)
    #: Per-operation CPU seconds of every process serving the operation.
    costs: list = field(default_factory=list)
    #: Per-operation CPU seconds of the reference job run right after the
    #: operation (see :func:`direct`).
    references: list = field(default_factory=list)
    #: Per-operation flag: was the op traced (see :func:`begin_op`)?
    traced: list = field(default_factory=list)
    #: Units of work per operation (queries per round for
    #: cyclic_analytics, requests per deck for the service, else 1).
    items_per_op: int = 1
    failed: int = 0
    #: Engine counters read at the end of the loop (see tracing.layer_metrics).
    counters: dict = field(default_factory=dict)
    notes: dict = field(default_factory=dict)
    peak_rss_mb: float | None = None

    @property
    def ops(self) -> int:
        return len(self.latencies)

    @property
    def relative(self) -> list:
        """Each operation's CPU time over its reference job's."""
        return [cost / ref for cost, ref in zip(self.costs, self.references)]


def session_counters(stats_list, before=None) -> dict:
    """Analysis- and plan-cache counters summed over ``EngineSession.stats()``
    snapshots, minus the ``before`` counters (those of set-up)."""
    counters = {
        "analysis_hits": 0, "analysis_misses": 0,
        "plan_hits": 0, "plan_misses": 0,
    }
    for stats in stats_list:
        counters["analysis_hits"] += stats["analysis_cache"]["hits"]
        counters["analysis_misses"] += stats["analysis_cache"]["misses"]
        counters["plan_hits"] += stats["plan_cache"]["hits"]
        counters["plan_misses"] += stats["plan_cache"]["misses"]
    for name, value in (before or {}).items():
        counters[name] -= value
    return counters


def begin_op(tracer, outcome: Outcome) -> None:
    """Start an operation.  In a traced run, operations alternate between
    traced and untraced, so the tracing overhead is measured on the same
    process, data and machine state as the traced figures."""
    traced = tracer is not None and outcome.ops % 2 == 1
    if tracer is not None:
        tracer.enabled = traced
        if traced:
            tracer.new_operation()
    outcome.traced.append(traced)


def direct(job) -> float:
    """CPU seconds the reference ``job()`` takes, with the cyclic garbage
    collector paused so that its time does not depend on how many objects
    the engine keeps alive."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.process_time()
        job()
        return time.process_time() - started
    finally:
        if enabled:
            gc.enable()


def _digest(value):
    return frozenset(value) if isinstance(value, set) else value


#: Seed of the inputs' structure.  The run's seed renames the values and
#: orders the rows (see :func:`relabelled`), so every seed poses the same
#: joins over the same sizes and a run's cost does not depend on which
#: random database its seed happened to draw.
STRUCTURE_SEED = 12


def relabelled(database: Database, rng: random.Random) -> tuple:
    """A copy of ``database`` with every value renamed by a seeded
    permutation of its active domain and every relation's rows stored in a
    seeded order; returns ``(copy, value mapping)``."""
    values = sorted(
        {value for relation in database.relations.values()
         for row in relation.tuples for value in row}
    )
    image = list(values)
    rng.shuffle(image)
    mapping = dict(zip(values, image))
    copy = Database()
    for relation in database.relations.values():
        rows = sorted(tuple(mapping[value] for value in row) for row in relation.tuples)
        rng.shuffle(rows)
        copy.add_relation(Relation(relation.name, relation.arity, rows))
    return copy, mapping


# ----------------------------------------------------------------------
# cyclic_analytics
# ----------------------------------------------------------------------
def hot_pair_query() -> ConjunctiveQuery:
    """``A(h, x, y), B(h, x, z), C(y, z)`` projected onto ``h``."""
    return ConjunctiveQuery(
        [Atom("A", ["h", "x", "y"]), Atom("B", ["h", "x", "z"]), Atom("C", ["y", "z"])]
    ).project(["h"])


def hot_pair_database(rng, key_domain=50, value_domain=2500, tuples=2250,
                      hot_pairs=3, hot_fraction=0.9) -> Database:
    """A and B put 90% of their ``(h, x)`` mass on three hot pairs; C is
    uniform.  Joining A with B first blows up quadratically, so the
    statistics must route the join through C."""
    database = Database()
    hot = [(rng.randrange(key_domain), rng.randrange(key_domain)) for _ in range(hot_pairs)]
    for name in ("A", "B"):
        relation = Relation(name, 3)
        while len(relation.tuples) < tuples:
            if rng.random() < hot_fraction:
                h, x = hot[rng.randrange(hot_pairs)]
            else:
                h, x = rng.randrange(key_domain), rng.randrange(key_domain)
            relation.add((h, x, rng.randrange(value_domain)))
        database.add_relation(relation)
    relation = Relation("C", 2)
    while len(relation.tuples) < tuples:
        relation.add((rng.randrange(value_domain), rng.randrange(value_domain)))
    database.add_relation(relation)
    return database


class CyclicAnalytics:
    """One closed-loop caller on one warm session: five query shapes over
    large resident databases.  One op is one round of the five queries (a
    dashboard refresh), so every latency sample has the same make-up;
    ``bench.ops_per_s`` counts queries.  The reference job is the round's five
    direct algorithms of ``oracles.py`` on the same databases."""

    name = "cyclic_analytics"
    #: About 45 rounds in 25 s.  A full collection of the engine's heap
    #: lands in about one round in five, so p90 lies inside that band.
    tail_percentile = 0.9

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def setup(self) -> None:
        structure = random.Random(f"perfbench|cyclic|{STRUCTURE_SEED}")
        rng = random.Random(f"perfbench|cyclic|{self.seed}")
        cycle = cqgen.cycle_query(6)
        wheel = cqgen.hub_cycle_query(4)
        star = cqgen.star_query(4)
        cycle_db, _ = relabelled(
            cqgen.random_database(cycle, 40, 2400, seed=structure.randrange(2**30)), rng
        )
        wheel_db, _ = relabelled(
            cqgen.random_database(wheel, 60, 6000, seed=structure.randrange(2**30)), rng
        )
        star_db, _ = relabelled(
            cqgen.random_database(star, 20000, 20000, seed=structure.randrange(2**30)), rng
        )
        hot_db, _ = relabelled(hot_pair_database(structure), rng)
        # (label, task, query, database, reference) — the reference is
        # computed lazily in check(), outside setup and the measured loop.
        self.calls = [
            ("cycle6_project", "answer", cycle.project(["x0"]), cycle_db,
             lambda: oracles.cycle_roots(cycle_db, 6)),
            ("cycle6_count", "count", cycle, cycle_db,
             lambda: oracles.cycle_count(cycle_db, 6)),
            ("wheel4_answer", "answer", wheel, wheel_db,
             lambda: oracles.wheel_answers(wheel, wheel_db)),
            ("star4_project", "answer", star.project(["c"]), star_db,
             lambda: oracles.star_centres(star_db, 4)),
            ("hot_pair_triangle", "answer", hot_pair_query(), hot_db,
             lambda: oracles.hot_pair_keys(hot_db)),
        ]
        self.session = EngineSession()
        for _label, task, query, database, _reference in self.calls:
            getattr(self.session, task)(query, database)

    def run(self, seconds: float, tracer=None) -> Outcome:
        outcome = Outcome(items_per_op=len(self.calls))
        self.seen = [dict() for _ in self.calls]
        estimated = actual = dropped = 0
        session = self.session
        before = session_counters([session.stats()])
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:
            begin_op(tracer, outcome)
            round_seconds = round_cpu = 0.0
            for slot, (_label, task, query, database, _ref) in enumerate(self.calls):
                started, started_cpu = time.perf_counter(), time.process_time()
                result = getattr(session, task)(query, database)
                round_seconds += time.perf_counter() - started
                round_cpu += time.process_time() - started_cpu
                digest = _digest(result.value)
                self.seen[slot][digest] = self.seen[slot].get(digest, 0) + 1
                # The loop is serial, so each result's statistics record
                # is this call's own; only traced rounds are counted.
                stats = (result.stats or {}) if outcome.traced[-1] else {}
                estimated += stats.get("estimated_rows", 0)
                actual += stats.get("actual_rows", 0)
                dropped += stats.get("prefilter_rows_dropped", 0)
            outcome.latencies.append(round_seconds)
            outcome.costs.append(round_cpu)
            outcome.references.append(direct(self._direct_round))
        if tracer is not None:
            tracer.enabled = False
        outcome.counters = session_counters([session.stats()], before)
        outcome.counters.update(
            estimated_rows=estimated, actual_rows=actual, prefilter_rows_dropped=dropped
        )
        return outcome

    def _direct_round(self) -> None:
        for _label, _task, _query, _database, reference in self.calls:
            reference()

    def check(self, outcome: Outcome) -> int:
        failed = 0
        for (label, _task, _query, _db, reference), seen in zip(self.calls, self.seen):
            expected = _digest(reference())
            for digest, count in seen.items():
                if digest != expected:
                    print(f"WRONG {self.name}/{label}: {count} results differ")
                    failed += count
        # A round fails when any of its queries does.
        return min(failed, outcome.ops)

    def close(self) -> None:
        self.session.clear_cache()


# ----------------------------------------------------------------------
# append_refresh
# ----------------------------------------------------------------------
#: Rows per append batch within a round: one row, 0.1% and 1% of the
#: initial 60k edges.
ROUND_BATCHES = (1, 60, 600)
#: Rounds arrive on a fixed schedule (an ingest feed), so the volume
#: appended in a run (about half the graph in 30 s) does not depend on how
#: fast the program is.
ROUND_INTERVAL_SECONDS = 0.5


class AppendRefresh:
    """Writes beside reads.  One op is one round of three steps, one per
    batch size of ``ROUND_BATCHES``; a step appends the batch, refreshes
    every standing view and answers one fixed query.  The reference job
    does the same steps directly: it keeps the two views and the
    adjacency in plain sets (see :meth:`_direct_step`)."""

    name = "append_refresh"
    #: 50 rounds in 25 s: p90 leaves 5 beyond it.
    tail_percentile = 0.9
    nodes = 20000
    edges = 60000

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def setup(self) -> None:
        structure = random.Random(f"perfbench|append|{STRUCTURE_SEED}")
        base = Database()
        relation = Relation("E", 2)
        while len(relation.tuples) < self.edges:
            relation.add((structure.randrange(self.nodes), structure.randrange(self.nodes)))
        base.add_relation(relation)
        self.rng = random.Random(f"perfbench|append|{self.seed}")
        rng = self.rng
        database, mapping = relabelled(base, rng)
        self.database = database
        self.view_queries = [
            ConjunctiveQuery([Atom("E", ["x", "y"]), Atom("E", ["y", "z"])]).project(
                ["x", "z"]
            ),
            ConjunctiveQuery([Atom("E", ["x", "y"]), Atom("E", ["y", "z"])]).project(["y"]),
        ]
        # The same node of the structure in every run, under its new name.
        self.hub = mapping[min(a for a, _b in base.relation("E").tuples)]
        self.fixed_query = ConjunctiveQuery(
            [Atom("E", [Constant(self.hub), "y"]), Atom("E", ["y", "z"])]
        ).project(["z"])
        self.session = EngineSession()
        self.views = [
            self.session.incremental_view(query, database) for query in self.view_queries
        ]
        for view in self.views:
            view.refresh()
        # The first refresh after an append warms the tuple-set views a
        # standing view keeps; a long-lived subscriber has paid it already.
        self._append(self._batch(1))
        for view in self.views:
            view.refresh()
        self.session.answer(self.fixed_query, database)
        # The reference job's state: adjacency and both views as sets.
        self.successors: dict = defaultdict(set)
        self.predecessors: dict = defaultdict(set)
        for a, b in database.relation("E").tuples:
            self.successors[a].add(b)
            self.predecessors[b].add(a)
        self.paths = {
            (x, z) for x, ys in self.successors.items() for y in ys
            for z in self.successors.get(y, ())
        }
        self.middles = {y for y in self.predecessors if self.successors.get(y)}

    def _batch(self, size: int) -> list:
        rng = self.rng
        return [(rng.randrange(self.nodes), rng.randrange(self.nodes)) for _ in range(size)]

    def _append(self, rows) -> None:
        for row in rows:
            self.database.add_fact("E", row)

    def _direct_step(self, rows) -> set:
        """One step done directly: add each new edge to the adjacency,
        extend both views by the two-paths through it, and return the
        fixed answer."""
        successors, predecessors = self.successors, self.predecessors
        for a, b in rows:
            if b in successors[a]:
                continue
            successors[a].add(b)
            predecessors[b].add(a)
            self.paths.update((x, b) for x in predecessors[a])
            self.paths.update((a, z) for z in successors[b])
            if predecessors[a]:
                self.middles.add(a)
            if successors[b]:
                self.middles.add(b)
        return {(z,) for y in successors.get(self.hub, ()) for z in successors.get(y, ())}

    def run(self, seconds: float, tracer=None) -> Outcome:
        outcome = Outcome(items_per_op=len(ROUND_BATCHES))
        self.fixed_seen = []
        before = session_counters([self.session.stats()])
        started_run = time.perf_counter()
        deadline = started_run + seconds
        while True:
            due = started_run + outcome.ops * ROUND_INTERVAL_SECONDS
            if due >= deadline:
                break
            batches = [self._batch(size) for size in ROUND_BATCHES]
            now = time.perf_counter()
            if now < due:
                time.sleep(due - now)
            begin_op(tracer, outcome)
            round_seconds = round_cpu = 0.0
            for rows in batches:
                began, began_cpu = time.perf_counter(), time.process_time()
                self._append(rows)
                for view in self.views:
                    view.refresh()
                result = self.session.answer(self.fixed_query, self.database)
                round_seconds += time.perf_counter() - began
                round_cpu += time.process_time() - began_cpu
                self.fixed_seen.append((self.database.relation("E").version, result.rows))
            outcome.latencies.append(round_seconds)
            outcome.costs.append(round_cpu)
            outcome.references.append(
                direct(lambda: [self._direct_step(rows) for rows in batches])
            )
        if tracer is not None:
            tracer.enabled = False
        outcome.counters = session_counters([self.session.stats()], before)
        return outcome

    def check(self, outcome: Outcome) -> int:
        failed = 0
        # The fixed answer: compare each step's rows against a direct
        # two-hop walk over the edges stored at that step's version,
        # replaying the append log in order.
        log = self.database.relation("E").delta_since(0)
        successors: dict = {}
        replayed = 0
        for version, rows in self.fixed_seen:
            for a, b in log[replayed:version]:
                successors.setdefault(a, set()).add(b)
            replayed = version
            expected = {
                (z,) for y in successors.get(self.hub, ()) for z in successors.get(y, ())
            }
            if rows != expected:
                failed += 1
        if failed:
            print(f"WRONG {self.name}/fixed_answer: {failed} steps differ")
        # Every standing view against a from-scratch answer on a fresh
        # session and against the reference job's sets.
        fresh = EngineSession()
        directly = (self.paths, {(y,) for y in self.middles})
        for query, view, expected in zip(self.view_queries, self.views, directly):
            if not view.rows == fresh.answer(query, self.database).rows == expected:
                print(f"WRONG {self.name}/view {query}: refreshed rows differ")
                failed += 1
        # A round fails when any of its steps does.
        return min(failed, outcome.ops)

    def close(self) -> None:
        self.session.clear_cache()


IN_PROCESS = {
    CyclicAnalytics.name: CyclicAnalytics,
    AppendRefresh.name: AppendRefresh,
}
