"""Property tests for counting consistency across all engine strategies.

On every generated scenario, and for every strategy the planner will accept
for it, the three query tasks must cohere:

* ``count(q, D) == len(answer(q, D))`` (distinct-projection semantics), and
* ``is_satisfiable(q, D) == (count(q, D) > 0)``.

These are the invariants that tie the counting DP (Prop. 4.14), the
enumeration path, and the Boolean path together — a bug in any one of them
breaks the equation on some regime.  A hypothesis-driven variant draws fresh
seeds so the invariant is exercised beyond the pinned scenario list.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cq import workloads
from repro.engine import EngineSession, STRATEGY_TRIVIAL
from repro.engine.backends import BACKENDS

SCENARIOS = workloads.generate_workload(seed=0, size="small")


@pytest.fixture(scope="module")
def session():
    return EngineSession()


def _consistent_on(session, query, database, plan=None):
    rows = session.answer(query, database, plan=plan).rows
    count = session.count(query, database, plan=plan).count
    satisfiable = session.is_satisfiable(query, database, plan=plan).satisfiable
    assert count == len(rows)
    assert satisfiable == (count > 0)


@pytest.mark.parametrize("scenario", SCENARIOS, ids=[s.name for s in SCENARIOS])
def test_counting_consistency_across_strategies(session, scenario):
    query, database = scenario.query, scenario.database
    _consistent_on(session, query, database)
    for strategy in sorted(BACKENDS):
        if strategy == STRATEGY_TRIVIAL and query.atoms:
            continue
        try:
            plan = session.plan(query, force_strategy=strategy)
        except ValueError:
            continue
        _consistent_on(session, query, database, plan=plan)


@settings(max_examples=12, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**16))
def test_counting_consistency_on_fresh_seeds(seed):
    session = EngineSession()
    # One scenario per regime keeps each hypothesis example fast while still
    # touching every dispatch route.
    for regime in workloads.ALL_REGIMES:
        scenario = workloads.generate_workload(seed=seed, regimes=[regime])[0]
        _consistent_on(session, scenario.query, scenario.database)
