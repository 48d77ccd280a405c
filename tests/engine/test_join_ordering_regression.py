"""Regression guard: the cost-based join ordering never does worse than the
historical overlap-greedy order on the existing workloads.

For every scenario of the workload seeds, the full multi-way join pool of
the query (one columnar view per atom, :meth:`Database.columnar_view`; the
cost path reads the columnar kernel's degree vectors) is evaluated under
both ordering modes with a step trace.  Two contracts:

* **per scenario** — the cost-based order's intermediates never *blow up*
  relative to static: greedy-by-estimate optimises one step at a time, so
  tiny sequence-level losses to the static order are possible on uniform
  data (both greedies are heuristics over the whole sequence), but anything
  beyond noise means the estimates are steering the join order wrong;
* **in aggregate per seed** — summed over the whole workload, the
  cost-based order materialises **no more** rows than the static one: the
  statistics must pay for themselves on the very workloads that existed
  before they did.

The skewed scenarios (where the orders genuinely diverge and cost-based
must win big) are covered by ``benchmarks/bench_engine_scaling.py``'s
``skewed_answer`` family and its ratio gate.
"""

import os

import pytest

from repro.cq import workloads
from repro.cq.relational import natural_join_all
from repro.cq.statistics import (
    ORDERING_STATIC,
    forced_join_ordering,
)


def _seeds():
    raw = os.environ.get("WORKLOAD_SEEDS", "0,1")
    return [int(part) for part in raw.split(",") if part.strip() != ""]


CASES = [
    (seed, scenario)
    for seed in _seeds()
    for scenario in workloads.generate_workload(seed=seed, size="small")
    # Pools of < 3 have no ordering decision; skip the trivial cases.
    if len({atom.relation for atom in scenario.query.atoms}) >= 3
]


def _pool(scenario):
    seen = set()
    pool = []
    for atom in scenario.query.atoms:
        if atom.relation in seen:
            continue
        seen.add(atom.relation)
        if not scenario.database.has_relation(atom.relation):
            return None
        pool.append(scenario.database.columnar_view(atom))
    return pool


def _traces(scenario):
    pool = _pool(scenario)
    if pool is None:
        return None
    static_trace: list = []
    with forced_join_ordering(ORDERING_STATIC):
        static_result = natural_join_all(list(pool), trace=static_trace)
    cost_trace: list = []
    cost_result = natural_join_all(list(pool), trace=cost_trace)
    # Same answer either way: the ordering is pure cost policy.
    assert (
        cost_result.decode_rows()
        == static_result.project(cost_result.columns).decode_rows()
    )
    return cost_trace, static_trace


@pytest.mark.parametrize(
    "seed,scenario", CASES, ids=[f"ordering/{s.name}" for _, s in CASES]
)
def test_cost_based_intermediates_never_blow_up(seed, scenario):
    traces = _traces(scenario)
    if traces is None:
        pytest.skip("query mentions a relation absent from the database")
    cost_trace, static_trace = traces
    # Greedy-by-estimate can lose a few rows to greedy-by-overlap over a
    # whole join sequence; it must never lose a *factor* — that would mean
    # the estimates steered the order into the blow-up they exist to avoid.
    assert sum(cost_trace) <= 1.5 * sum(static_trace) + 32, (
        f"{scenario.name}: cost-based materialised {sum(cost_trace)} rows "
        f"vs static {sum(static_trace)} ({cost_trace} vs {static_trace})"
    )


@pytest.mark.parametrize("seed", _seeds())
def test_cost_based_wins_in_aggregate(seed):
    cost_total = 0
    static_total = 0
    for case_seed, scenario in CASES:
        if case_seed != seed:
            continue
        traces = _traces(scenario)
        if traces is None:
            continue
        cost_trace, static_trace = traces
        cost_total += sum(cost_trace)
        static_total += sum(static_trace)
    assert static_total > 0, "the workload produced no multi-way joins"
    assert cost_total <= static_total, (
        f"seed {seed}: cost-based materialised {cost_total} intermediate "
        f"rows vs static {static_total} across the workload"
    )
