"""Differential conformance harness: every registered engine strategy must
agree with the naive reference solver on the generated scenario workloads.

The workload (:mod:`repro.cq.workloads`) spans the four structural regimes
of the paper — acyclic, bounded-ghw, core-reducible, hard — each over
satisfiable, planted, unsatisfiable, and proper-colouring databases.  For
every scenario this harness runs:

* the planner's *default dispatch* (answer / count / is_satisfiable), on
  the scenario as generated and on a renamed, atom-permuted spelling of it
  (both run one canonical form on the warm session),
* every strategy in the backend registry that is *forceable* on the
  scenario's structure (forcing Yannakakis on a cyclic query correctly
  raises — that is applicability, not disagreement),
* the semantic ``use_core=True`` route,
* the forced-GHD plans again with bag arrays forced on and forced off,
* the session *batch* path,
* the *sharded* path at shard counts {1, 2, 4, 8} — the scenario's
  designated shard variable when the workload provides one (the ``sharded``
  regime covers the co-partitioned and broadcast rungs by construction),
  the engine's automatic choice otherwise, with a hypothesis property that
  fresh-seed results are invariant in the shard count,
* and **every registered execution runtime** (inline / process) at
  shard counts {1, 2, 4} over a per-regime representative slice of the
  scenarios — default dispatch and every forced decomposition plan, all
  three answer tasks, every regime, every database flavour, with the
  process pass running on real worker processes,
* and the same slice driven by **two concurrent callers** on the shared
  session (fan-out runs inline, so concurrency comes from callers),

and asserts bit-for-bit agreement with the naive linear-scan solver.  The
later passes replay the same slice through owner-routed process workers,
append batches (incremental refresh and delta shipping) and the skewed
regime's cost-based join ordering.

Seeds are parametrized: set ``WORKLOAD_SEEDS=3,4,5`` to point CI at fresh
scenarios — any failure reproduces locally from the seed in the test id.
``make differential`` runs this file and the join-ordering regression guard
on one seed (``WORKLOAD_SEEDS=n``, default 0).
"""

import functools
import os
import random
import threading

import pytest
from hypothesis import given, settings, strategies as st

from repro.cq import Atom, ConjunctiveQuery, columnar, workloads
from repro.cq.homomorphism import naive_count_answers, naive_enumerate_answers
from repro.engine import (
    EngineSession,
    ProcessRuntime,
    RUNTIME_PROCESS,
    SHARD_MODE_BROADCAST,
    SHARD_MODE_COPARTITIONED,
    STRATEGY_GHD,
    STRATEGY_TRIVIAL,
    STRATEGY_YANNAKAKIS,
    registered_runtimes,
    runtime_for,
    sharding_spec,
)
from repro.engine import runtime as runtime_module
from repro.engine.backends import BACKENDS


def _seeds() -> list[int]:
    raw = os.environ.get("WORKLOAD_SEEDS", "0,1")
    return [int(part) for part in raw.split(",") if part.strip() != ""]


SEEDS = _seeds()
SCENARIOS = [
    (seed, scenario)
    for seed in SEEDS
    for scenario in workloads.generate_workload(seed=seed, size="small")
]


@pytest.fixture(scope="module")
def session():
    # One session for the whole harness: the differential pass doubles as a
    # soak test of the shared analysis/plan caches across many queries.
    return EngineSession()


def _forceable_strategies(session, query):
    """Every registered strategy the planner accepts for this query."""
    strategies = []
    for strategy in sorted(BACKENDS):
        if strategy == STRATEGY_TRIVIAL and query.atoms:
            continue
        try:
            session.plan(query, force_strategy=strategy)
        except ValueError:
            continue
        strategies.append(strategy)
    return strategies


# The matrix: one cell per (route, scenario), where the route is the
# planner's default dispatch or one strategy forced on the scenario's
# structure, so a disagreement names its route in the test id.
ROUTE_DEFAULT = "default"


def _strategy_cases():
    planning = EngineSession()
    cases = []
    for seed, scenario in SCENARIOS:
        routes = [ROUTE_DEFAULT, *_forceable_strategies(planning, scenario.query)]
        cases.extend((route, seed, scenario) for route in routes)
    return cases


STRATEGY_CASES = _strategy_cases()

_EXPECTED = {}


def _respelled(query, seed):
    """``query`` with its variables renamed onto fresh names and its atoms
    permuted, both drawn from ``seed``; the head keeps its order, so the
    answer tuples are the original's."""
    rng = random.Random(seed)
    fresh = [f"s{i}" for i in range(len(query.variables))]
    rng.shuffle(fresh)
    rename = dict(zip(query.variables, fresh))
    atoms = list(query.atoms)
    rng.shuffle(atoms)
    return ConjunctiveQuery(
        [
            Atom(atom.relation, [rename.get(term, term) for term in atom.terms])
            for atom in atoms
        ],
        free_variables=[rename[variable] for variable in query.free_variables],
    )


def _expected(scenario):
    """The naive solver's rows and count, computed once per scenario."""
    if scenario.name not in _EXPECTED:
        rows = naive_enumerate_answers(scenario.query, scenario.database)
        count = naive_count_answers(scenario.query, scenario.database)
        assert count == len(rows)
        _EXPECTED[scenario.name] = rows, count
    return _EXPECTED[scenario.name]


@pytest.mark.parametrize(
    "route,seed,scenario",
    STRATEGY_CASES,
    ids=[f"{route}/{s.name}" for route, _, s in STRATEGY_CASES],
)
def test_all_strategies_agree_with_naive(session, route, seed, scenario):
    query, database = scenario.query, scenario.database
    expected_rows, expected_count = _expected(scenario)

    if route == ROUTE_DEFAULT:
        assert _forceable_strategies(session, query), (
            f"no strategy applies to {scenario.name}"
        )
        # The scenario as generated, then renamed with its atoms permuted,
        # on the same warm session: both spellings run one canonical form,
        # sharing its plan and atom views.
        for spelling in (query, _respelled(query, scenario.name)):
            assert session.answer(spelling, database).rows == expected_rows, (
                f"{scenario.name}: {spelling}"
            )
            assert session.count(spelling, database).count == expected_count
            assert session.is_satisfiable(spelling, database).satisfiable == bool(
                expected_rows
            )
            # The semantic route (plans for the core; answer-invariant).
            assert (
                session.answer(spelling, database, use_core=True).rows == expected_rows
            )
        return

    plan = session.plan(query, force_strategy=route)
    rows = session.answer(query, database, plan=plan).rows
    assert rows == expected_rows, f"{scenario.name}: {route} disagrees on rows"
    count = session.count(query, database, plan=plan).count
    assert count == expected_count, f"{scenario.name}: {route} disagrees on count"
    sat = session.is_satisfiable(query, database, plan=plan).satisfiable
    assert sat == bool(expected_rows), f"{scenario.name}: {route} disagrees on BCQ"


# ----------------------------------------------------------------------
# The bag forms: the forced-GHD slice again with bag arrays forced on
# (``_VECTOR_MIN_ROWS`` at 0, ``_DENSE_FACTOR`` out of reach, so every tree
# within the cell bound holds its bags as arrays) and forced off
# (``_DENSE_FACTOR`` at 0: row bags on the NumPy kernel's sort branches;
# a negative cell bound also keeps a tree of empty relations, whose arrays
# have no cell, in row form).
# ----------------------------------------------------------------------
BAG_FORMS = {
    "arrays": {"_VECTOR_MIN_ROWS": 0, "_DENSE_FACTOR": 10**9},
    "rows": {"_VECTOR_MIN_ROWS": 0, "_DENSE_FACTOR": 0, "_BAG_ARRAY_CELLS": -1},
}
GHD_CASES = [
    (form, seed, scenario)
    for form in sorted(BAG_FORMS)
    for route, seed, scenario in STRATEGY_CASES
    if route == STRATEGY_GHD
]


@pytest.fixture(scope="module")
def bag_trees():
    """Bag form -> the root bag type of every tree its pass built."""
    return {form: [] for form in BAG_FORMS}


@pytest.mark.parametrize(
    "form,seed,scenario",
    GHD_CASES,
    ids=[f"bags-{form}/{s.name}" for form, _, s in GHD_CASES],
)
def test_forced_ghd_agrees_with_naive_in_both_bag_forms(
    form, seed, scenario, bag_trees, monkeypatch
):
    for name, value in BAG_FORMS[form].items():
        monkeypatch.setattr(columnar, name, value)
    build = columnar.build_columnar_bag_tree

    def spied(query, database, ghd):
        tree = build(query, database, ghd)
        bag_trees[form].append(type(tree.relations[tree.root]))
        return tree

    monkeypatch.setattr(columnar, "build_columnar_bag_tree", spied)
    query, database = scenario.query, scenario.database
    expected_rows, expected_count = _expected(scenario)
    session = EngineSession()
    plan = session.plan(query, force_strategy=STRATEGY_GHD)
    assert session.answer(query, database, plan=plan).rows == expected_rows
    assert session.count(query, database, plan=plan).count == expected_count
    assert session.is_satisfiable(query, database, plan=plan).satisfiable == bool(
        expected_rows
    )


def test_bag_form_coverage_guard(bag_trees):
    # Runs after the pass above (file order): the forced-on pass held its
    # bags as arrays, and the forced-off pass only as rows.
    assert columnar.BagArray in bag_trees["arrays"], "no bag array was built"
    assert set(bag_trees["rows"]) == {columnar.ColumnarRelation}


@pytest.mark.parametrize("seed", SEEDS)
def test_regime_coverage(seed):
    regimes = {s.regime for s in workloads.generate_workload(seed=seed)}
    assert regimes == set(workloads.ALL_REGIMES)


@pytest.mark.parametrize("seed", SEEDS)
def test_batch_path_agrees_with_naive(seed):
    queries, database = workloads.mixed_batch(seed=seed, copies=3, distinct=12)
    results = EngineSession().answer_many(queries, database, parallel=4)
    for query, result in zip(queries, results):
        assert result.rows == naive_enumerate_answers(query, database)


# ----------------------------------------------------------------------
# The sharded path: exact at every shard count, every regime, every rung
# of the fallback ladder.
# ----------------------------------------------------------------------
SHARD_COUNTS = (1, 2, 4, 8)


@pytest.mark.parametrize(
    "seed,scenario", SCENARIOS, ids=[f"shards/{s.name}" for _, s in SCENARIOS]
)
def test_sharded_execution_agrees_with_naive(session, seed, scenario):
    query, database = scenario.query, scenario.database
    expected_rows = naive_enumerate_answers(query, database)
    expected_count = naive_count_answers(query, database)
    for shards in SHARD_COUNTS:
        answered = session.answer(
            query, database, shards=shards, shard_variable=scenario.shard_variable
        )
        assert answered.rows == expected_rows, (
            f"{scenario.name}: sharded answer disagrees at shards={shards} "
            f"(mode {answered.sharding['mode'] if answered.sharding else None})"
        )
        counted = session.count(
            query, database, shards=shards, shard_variable=scenario.shard_variable
        )
        assert counted.count == expected_count, (
            f"{scenario.name}: sharded count disagrees at shards={shards}"
        )
        boolean = session.is_satisfiable(
            query, database, shards=shards, shard_variable=scenario.shard_variable
        )
        assert boolean.satisfiable == bool(expected_rows), (
            f"{scenario.name}: sharded BCQ disagrees at shards={shards}"
        )


@pytest.mark.parametrize("seed", SEEDS)
def test_sharded_regime_covers_both_ladder_rungs(seed):
    # The workload must keep exercising both sharded modes: losing either
    # would silently shrink what the differential pass above checks.
    modes = set()
    for scenario in workloads.generate_workload(
        seed=seed, regimes=[workloads.REGIME_SHARDED]
    ):
        spec = sharding_spec(
            scenario.query, 4, shard_variable=scenario.shard_variable
        )
        modes.add(spec.mode)
    assert {SHARD_MODE_COPARTITIONED, SHARD_MODE_BROADCAST} <= modes


# ----------------------------------------------------------------------
# The runtime pass: every registered execution runtime must agree with the
# naive solver across every regime at shard counts 1/2/4, on the planner's
# default dispatch and on every forced decomposition plan.  One query shape
# per (regime, database flavour) keeps the process pass's IPC volume sane
# while still covering every dispatch route, every sharding-ladder rung,
# and every database flavour per runtime.
# ----------------------------------------------------------------------
RUNTIME_SHARD_COUNTS = (1, 2, 4)
DECOMPOSITION_STRATEGIES = (STRATEGY_YANNAKAKIS, STRATEGY_GHD)


def _runtime_slice(seed):
    covered = set()
    chosen = []
    for scenario in workloads.generate_workload(seed=seed, size="small"):
        query_name, database_flavour = scenario.name.split("/")[1:3]
        if (scenario.regime, database_flavour) in covered:
            continue
        covered.add((scenario.regime, database_flavour))
        chosen.append(scenario)
    return chosen


def _decomposition_plans(session, query):
    """A forced plan for each decomposition strategy the planner accepts
    for this query (each runs on the columnar kernel)."""
    plans = []
    for strategy in DECOMPOSITION_STRATEGIES:
        try:
            plans.append(session.plan(query, force_strategy=strategy))
        except ValueError:
            continue
    return plans


def _columnar_lookups(database) -> int:
    """View lookups served by the database's columnar store: a columnar
    evaluation on the database looks up each atom's view there."""
    store = database.columnar_cache
    if store is None:
        return 0
    info = store.info()
    return info["hits"] + info["misses"]


RUNTIME_CASES = [
    (runtime_name, seed, scenario)
    for runtime_name in registered_runtimes()
    for seed in SEEDS
    for scenario in _runtime_slice(seed)
]


@pytest.fixture(scope="module")
def runtimes():
    # The process runtime is shared across the whole pass (worker pools are
    # expensive); a tiny pool keeps the single-core CI box honest while
    # still exercising multi-worker routing and the need-data protocol.
    process = ProcessRuntime(max_workers=2)
    instances = {
        name: (process if name == RUNTIME_PROCESS else runtime_for(name))
        for name in registered_runtimes()
    }
    yield instances
    process.close()


@pytest.mark.parametrize(
    "runtime_name,seed,scenario",
    RUNTIME_CASES,
    ids=[f"{r}/{s.name}" for r, _, s in RUNTIME_CASES],
)
def test_every_runtime_agrees_with_naive(session, runtimes, runtime_name, seed, scenario):
    query, database = scenario.query, scenario.database
    runtime = runtimes[runtime_name]
    in_process = runtime_name != RUNTIME_PROCESS
    expected_rows = naive_enumerate_answers(query, database)
    expected_count = naive_count_answers(query, database)
    forced = _decomposition_plans(session, query)
    if not in_process:
        forced = forced[:1]  # one strategy per scenario bounds IPC
    for plan in [None, *forced]:
        route = "default" if plan is None else plan.strategy
        lookups = _columnar_lookups(database)
        for shards in RUNTIME_SHARD_COUNTS:
            options = dict(
                plan=plan, shards=shards,
                shard_variable=scenario.shard_variable, runtime=runtime,
            )
            answered = session.answer(query, database, **options)
            assert answered.rows == expected_rows, (
                f"{scenario.name}: {runtime_name} {route} answer disagrees "
                f"at shards={shards}"
            )
            assert answered.runtime["name"] == runtime_name
            if plan is not None and not in_process:
                continue  # forced plans on worker processes: answers only
            counted = session.count(query, database, **options)
            assert counted.count == expected_count, (
                f"{scenario.name}: {runtime_name} {route} count disagrees "
                f"at shards={shards}"
            )
            boolean = session.is_satisfiable(query, database, **options)
            assert boolean.satisfiable == bool(expected_rows), (
                f"{scenario.name}: {runtime_name} {route} BCQ disagrees "
                f"at shards={shards}"
            )
        if plan is not None and in_process:
            # Coverage guard: at shards=1 the forced plan evaluated on the
            # database itself, in this process, so its columnar store must
            # have served each of the three tasks.
            assert _columnar_lookups(database) >= lookups + 3, (
                f"{scenario.name}: {runtime_name} {route} did not execute "
                "columnar-side"
            )


@pytest.mark.parametrize("seed", SEEDS)
def test_runtime_slice_covers_every_regime_and_flavour(session, seed):
    # The guard that keeps the runtime pass honest: if the slice ever loses
    # a regime or a database flavour, or one stops admitting a decomposition
    # plan, the runtime coverage silently shrinks.
    chosen = _runtime_slice(seed)
    assert {s.regime for s in chosen} == set(workloads.ALL_REGIMES)
    flavours = {s.name.split("/")[2] for s in chosen}
    assert flavours == {"random", "planted", "unsat", "colour", "zipf", "hub"}
    decomposable = [s for s in chosen if _decomposition_plans(session, s.query)]
    assert {s.regime for s in decomposable} == set(workloads.ALL_REGIMES)
    assert {s.name.split("/")[2] for s in decomposable} == flavours


# ----------------------------------------------------------------------
# The concurrent pass: fan-out runs inline, so the concurrency a session
# meets comes from its callers (the service answers every request on its
# own thread).  Two callers drive the shared session through the runtime
# slice at once — each scenario on a fresh database, so the callers race
# to cut its first partition pieces — over default dispatch and every
# forced decomposition plan, all three tasks, shard counts 1/2/4, and every
# result must still agree with the naive solver.
# ----------------------------------------------------------------------
CONCURRENT_CALLERS = 2
CONCURRENT_CASES = [
    (seed, scenario) for seed in SEEDS for scenario in _runtime_slice(seed)
]


@pytest.mark.parametrize(
    "seed,scenario",
    CONCURRENT_CASES,
    ids=[f"concurrent/{s.name}" for _, s in CONCURRENT_CASES],
)
def test_concurrent_callers_agree_with_naive(session, seed, scenario):
    query, database = scenario.query, scenario.database
    expected_rows = naive_enumerate_answers(query, database)
    expected = (expected_rows, len(expected_rows), bool(expected_rows))
    plans = [None, *_decomposition_plans(session, query)]
    start = threading.Barrier(CONCURRENT_CALLERS)
    disagreements: list = []
    errors: list = []

    def call() -> None:
        try:
            start.wait(timeout=30)
            for plan in plans:
                for shards in RUNTIME_SHARD_COUNTS:
                    options = dict(
                        plan=plan, shards=shards,
                        shard_variable=scenario.shard_variable,
                    )
                    got = (
                        session.answer(query, database, **options).rows,
                        session.count(query, database, **options).count,
                        session.is_satisfiable(
                            query, database, **options
                        ).satisfiable,
                    )
                    if got != expected:
                        route = "default" if plan is None else plan.strategy
                        disagreements.append(f"{route} at shards={shards}")
        except Exception as exc:  # pragma: no cover - reported below
            errors.append(exc)

    callers = [threading.Thread(target=call) for _ in range(CONCURRENT_CALLERS)]
    for caller in callers:
        caller.start()
    for caller in callers:
        caller.join(timeout=120)
    assert not any(caller.is_alive() for caller in callers), (
        f"{scenario.name}: a concurrent caller did not finish"
    )
    assert errors == [], f"{scenario.name}: {errors!r}"
    assert disagreements == [], (
        f"{scenario.name}: concurrent callers disagree with naive: "
        f"{disagreements}"
    )


# ----------------------------------------------------------------------
# The affinity pass: owner-routed process execution must stay exact across
# every regime and shard count, AND honour the routing invariant — every
# shard task executes on the worker that owns its piece, with zero recovery
# traffic in a healthy run.
# ----------------------------------------------------------------------
AFFINITY_CASES = [
    (seed, scenario) for seed in SEEDS for scenario in _runtime_slice(seed)
]


@pytest.fixture(scope="module")
def affinity_runtime():
    # A dedicated runtime so the coverage guard below reads counters that
    # only this pass produced.  Its dataset bound is raised above the
    # pass's total token count — eviction re-mints tokens and re-ships,
    # which would trip the guard for bookkeeping rather than routing
    # reasons.
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(runtime_module, "MAX_DATASETS", 4096)
        runtime = ProcessRuntime(max_workers=2)
    yield runtime
    runtime.close()


@pytest.mark.parametrize(
    "seed,scenario",
    AFFINITY_CASES,
    ids=[f"affinity/{s.name}" for _, s in AFFINITY_CASES],
)
def test_affinity_routed_execution_agrees_with_naive(
    session, affinity_runtime, seed, scenario
):
    query, database = scenario.query, scenario.database
    expected_rows = naive_enumerate_answers(query, database)
    expected_count = naive_count_answers(query, database)
    for shards in RUNTIME_SHARD_COUNTS:
        answered = session.answer(
            query, database, shards=shards,
            shard_variable=scenario.shard_variable, runtime=affinity_runtime,
        )
        assert answered.rows == expected_rows, (
            f"{scenario.name}: affinity answer disagrees at shards={shards}"
        )
        counted = session.count(
            query, database, shards=shards,
            shard_variable=scenario.shard_variable, runtime=affinity_runtime,
        )
        assert counted.count == expected_count, (
            f"{scenario.name}: affinity count disagrees at shards={shards}"
        )
        boolean = session.is_satisfiable(
            query, database, shards=shards,
            shard_variable=scenario.shard_variable, runtime=affinity_runtime,
        )
        assert boolean.satisfiable == bool(expected_rows), (
            f"{scenario.name}: affinity BCQ disagrees at shards={shards}"
        )


def test_affinity_coverage_guard(affinity_runtime):
    # Runs after the parametrized pass above (file order): every shard task
    # it dispatched executed on its owning worker — no replica routing on
    # sharded calls, no need-data recovery, no worker deaths — and the
    # coordinator's residency agrees with its routing table: each piece
    # resident on exactly the one worker that owns it.
    stats = affinity_runtime.stats()
    assert stats["tasks_dispatched"] > 0, "affinity pass dispatched nothing"
    assert stats["tasks_owner_routed"] == stats["tasks_dispatched"]
    assert stats["tasks_replica_routed"] == 0
    assert stats["recovery_reships"] == 0
    assert stats["worker_restarts"] == 0
    routing = affinity_runtime.routing()
    residency = affinity_runtime.residency()
    tokens = [token for held in residency.values() for token in held]
    assert len(tokens) == len(set(tokens)), "a piece is resident twice"
    for token, owner in routing.items():
        assert token in residency[owner], (
            f"{token} owned by worker {owner} but not resident there"
        )
    # Shipments reconcile against distinct pieces: each live piece shipped
    # exactly once, plus one shipment per token the coordinator retired
    # (a garbage-collected piece whose recycled id was reached again —
    # GC-timing dependent, usually zero).  No appends ran, so the delta
    # side of the ledger is untouched.
    assert stats["shipments"] == len(tokens) + stats["tokens_retired"]
    assert stats["shipment_bytes"] > 0
    assert stats["delta_shipments"] == 0


# ----------------------------------------------------------------------
# The incremental pass: append-heavy replay.  A standing IncrementalView
# refreshes after every append batch and must equal a from-scratch
# evaluation each time — per regime x database flavour, plus a sharded
# variant (shards 1/2/4) whose process-runtime leg proves the appends
# travelled as delta shipments, not full re-ships.
# ----------------------------------------------------------------------
APPEND_BATCHES = 3
INCREMENTAL_CASES = [
    (seed, scenario) for seed in SEEDS for scenario in _runtime_slice(seed)
]


@pytest.mark.parametrize(
    "seed,scenario",
    INCREMENTAL_CASES,
    ids=[f"incremental/{s.name}" for _, s in INCREMENTAL_CASES],
)
def test_incremental_refresh_agrees_with_from_scratch(session, seed, scenario):
    query, database = scenario.query, scenario.database
    view = session.incremental_view(query, database)
    initial = view.refresh()
    assert initial.rows == naive_enumerate_answers(query, database)
    for batch in workloads.append_schedule(
        database, batches=APPEND_BATCHES, fraction=0.05, seed=seed
    ):
        workloads.apply_appends(database, batch)
        refreshed = view.refresh()
        assert refreshed.rows == naive_enumerate_answers(query, database), (
            f"{scenario.name}: incremental refresh "
            f"({refreshed.incremental['mode']}) diverged from scratch"
        )
        assert view.count == session.count(query, database).count
        assert view.satisfiable == bool(refreshed.rows)


@pytest.mark.parametrize("seed", SEEDS)
def test_incremental_pass_covers_every_regime_and_flavour(seed):
    chosen = [s for _, s in INCREMENTAL_CASES if s.seed == seed]
    assert {s.regime for s in chosen} == set(workloads.ALL_REGIMES)
    assert {s.name.split("/")[2] for s in chosen} == {
        "random", "planted", "unsat", "colour", "zipf", "hub"
    }
    # Every scenario admits a non-trivial schedule (the replay would
    # silently become a noop pass otherwise).
    for scenario in chosen:
        schedule = workloads.append_schedule(scenario.database, seed=seed)
        assert len(schedule) == APPEND_BATCHES
        assert any(rows for batch in schedule for rows in batch.values())


DELTA_SHIP_CASES = [
    (seed, scenario) for seed in SEEDS for scenario in _runtime_slice(seed)
]


@pytest.mark.parametrize(
    "seed,scenario",
    DELTA_SHIP_CASES,
    ids=[f"delta-ship/{s.name}" for _, s in DELTA_SHIP_CASES],
)
def test_append_replay_stays_exact_across_shards_and_delta_shipping(
    session, runtimes, seed, scenario
):
    # The sharded legs reuse the session's resident partition pieces (the
    # delta rows are routed into the cached shards, not re-partitioned) and
    # the process leg re-syncs each worker's resident piece with a delta
    # shipment; both must keep agreeing with the naive solver after every
    # append batch.
    query, database = scenario.query, scenario.database
    process = runtimes[RUNTIME_PROCESS]
    for shards in RUNTIME_SHARD_COUNTS:
        session.answer(
            query, database, shards=shards,
            shard_variable=scenario.shard_variable,
        )
    session.answer(
        query, database, shards=2,
        shard_variable=scenario.shard_variable, runtime=process,
    )
    for batch in workloads.append_schedule(database, batches=2, seed=seed):
        workloads.apply_appends(database, batch)
        expected = naive_enumerate_answers(query, database)
        for shards in RUNTIME_SHARD_COUNTS:
            answered = session.answer(
                query, database, shards=shards,
                shard_variable=scenario.shard_variable,
            )
            assert answered.rows == expected, (
                f"{scenario.name}: post-append sharded answer disagrees "
                f"at shards={shards}"
            )
        shipped = session.answer(
            query, database, shards=2,
            shard_variable=scenario.shard_variable, runtime=process,
        )
        assert shipped.rows == expected, (
            f"{scenario.name}: post-append process answer disagrees"
        )


def test_delta_shipping_coverage_guard(runtimes):
    # Runs after the parametrized pass above (file order): the appends in
    # this module's replay travelled to resident workers as deltas — the
    # wire path the replay claims to cover actually ran.
    stats = runtimes[RUNTIME_PROCESS].stats()
    assert stats["delta_shipments"] > 0, "no delta shipment ever happened"
    assert stats["delta_bytes"] > 0


# ----------------------------------------------------------------------
# The skewed pass: the scenarios exist to exercise the cost-based ordering
# machinery — hold the calls' join records up as proof that it actually ran.
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", SEEDS)
def test_skewed_pass_exercises_cost_based_ordering(session, seed):
    cost_joins = 0
    for scenario in workloads.generate_workload(
        seed=seed, regimes=[workloads.REGIME_SKEWED]
    ):
        result = session.answer(scenario.query, scenario.database)
        assert result.rows == naive_enumerate_answers(
            scenario.query, scenario.database
        ), scenario.name
        cost_joins += (result.stats or {}).get("cost_joins", 0)
    # Coverage guard: the skewed scenarios must drive the cost-based join
    # ordering (triangle bags put >= 3 relations in the join pool), or this
    # regime silently stops testing what it was added for.
    assert cost_joins > 0, "cost-based ordering never ran on the skewed pass"


@functools.lru_cache(maxsize=128)
def _first_scenario(seed, regime):
    # The property below needs one scenario per (seed, regime); caching
    # avoids regenerating the regime's full query x database grid every
    # time hypothesis revisits a seed (e.g. while shrinking).
    return workloads.generate_workload(seed=seed, regimes=[regime])[0]


@settings(max_examples=10, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    shards=st.integers(min_value=1, max_value=8),
)
def test_sharded_results_invariant_in_shard_count(seed, shards):
    # Property: for ANY scenario and shard count, the sharded session
    # returns exactly what the unsharded session returns.  One scenario per
    # regime keeps each example fast while touching every dispatch route
    # and every rung of the sharding ladder.
    session = EngineSession()
    for regime in workloads.ALL_REGIMES:
        scenario = _first_scenario(seed, regime)
        query, database = scenario.query, scenario.database
        baseline_rows = session.answer(query, database).rows
        baseline_count = session.count(query, database).count
        sharded = session.answer(
            query, database, shards=shards, shard_variable=scenario.shard_variable
        )
        assert sharded.rows == baseline_rows
        counted = session.count(
            query, database, shards=shards, shard_variable=scenario.shard_variable
        )
        assert counted.count == baseline_count
