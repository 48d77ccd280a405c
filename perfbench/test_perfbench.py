"""The benchmark's own checks: the trace wrappers reach every layer they
name, each span fires on the workload its layer is measured on, and the
spans predicted to stay near zero on a workload do.

Run from the root of a checkout::

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import pathlib
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
for path in (HERE, HERE.parent / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import scenarios  # noqa: E402
import service_load  # noqa: E402
import tracing  # noqa: E402
from repro.cq import relational  # noqa: E402
from repro.engine.runtime import shutdown_runtimes  # noqa: E402
from repro.engine.session import EngineSession  # noqa: E402

RUN_SECONDS = 1.5
SERVICE_ONLY = (
    "service.http.parse_ms", "service.codec_ms", "service.admission.wait_ms",
)


def traced_run(workload_class, seed=3) -> dict:
    tracer = tracing.Tracer()
    tracer.enabled = False
    installation = tracing.install(tracer, tracing.ENGINE_TARGETS)
    workload = workload_class(seed)
    try:
        workload.setup()
        tracer.enabled = True
        outcome = workload.run(RUN_SECONDS, tracer)
        tracer.enabled = False
        assert workload.check(outcome) == 0
    finally:
        installation.uninstall()
        workload.close()
        shutdown_runtimes()
    return tracing.layer_metrics(tracer.spans, outcome.counters)


def test_install_wraps_every_binding_and_uninstall_restores():
    original_join = relational.natural_join_all
    original_plan = EngineSession.__dict__["plan"]
    installation = tracing.install(tracing.Tracer(), tracing.ENGINE_TARGETS)
    try:
        from repro.cq import bags, columnar

        assert relational.natural_join_all is columnar.natural_join_all
        assert bags.natural_join_all is relational.natural_join_all
        assert relational.natural_join_all is not original_join
        with pytest.raises(RuntimeError, match="already traced"):
            tracing.install(tracing.Tracer(), tracing.ENGINE_TARGETS)
    finally:
        installation.uninstall()
    assert relational.natural_join_all is original_join
    assert EngineSession.__dict__["plan"] is original_plan


def test_install_refuses_a_moved_by_name_import(monkeypatch):
    from repro.cq import bags

    monkeypatch.setattr(bags, "natural_join_all", lambda pool: pool[0])
    with pytest.raises(RuntimeError, match="by-name import moved"):
        tracing.install(tracing.Tracer(), tracing.ENGINE_TARGETS)


def test_reference_evaluator_agrees_with_the_naive_solver():
    # The service's reference job discards its answers, so check them here.
    from repro.cq.homomorphism import naive_enumerate_answers

    import oracles
    import servicemix

    queries, database = servicemix.dataset()
    for query in queries:
        assert oracles.enumerate_answers(query, database) == naive_enumerate_answers(
            query, database
        ), query


def test_relabelled_inputs_keep_their_structure():
    import random

    from repro.cq import generators as cqgen

    base = cqgen.random_database(cqgen.cycle_query(4), 20, 200, seed=1)
    one, _ = scenarios.relabelled(base, random.Random(1))
    two, mapping = scenarios.relabelled(base, random.Random(2))
    assert one.relation("R0").tuples != two.relation("R0").tuples
    for name, relation in base.relations.items():
        assert two.relation(name).tuples == {
            tuple(mapping[value] for value in row) for row in relation.tuples
        }


def test_cyclic_analytics_is_kernel_work_with_planning_near_zero():
    metrics = traced_run(scenarios.CyclicAnalytics)
    for name in (
        "columnar.bag_build.self_ms", "columnar.join.self_ms",
        "columnar.reduce.self_ms", "columnar.count_dp.self_ms",
        "columnar.decode.self_ms", "statistics.estimate.self_ms",
    ):
        assert metrics[name] > 0, name
    assert metrics["columnar.join.rows_out"] > 0
    # Warm session: every plan is a cache hit, nothing is analysed.
    assert metrics["analysis.calls"] == 0
    assert metrics["planner.plan_cache_hit_ratio"] == 1.0
    kernel = sum(
        metrics[name] for name in metrics
        if name.startswith("columnar.") and name.endswith("self_ms")
    )
    assert metrics["planner.self_ms"] < 0.01 * kernel
    for name in (
        "backtracking.calls", "database.append.rows", "incremental.refresh.self_ms",
        "sharding.partition.calls", "runtime.tasks", *SERVICE_ONLY,
    ):
        assert metrics[name] == 0, name


def test_append_refresh_exercises_the_write_path():
    metrics = traced_run(scenarios.AppendRefresh)
    for name in (
        "database.append.rows", "database.append.self_ms",
        "incremental.refresh.self_ms", "incremental.delta_rows",
    ):
        assert metrics[name] > 0, name
    assert metrics["incremental.incremental_mode_ratio"] == 1.0
    for name in ("backtracking.calls", "sharding.partition.calls", *SERVICE_ONLY):
        assert metrics[name] == 0, name


def test_service_spans_fire_in_the_server_process(tmp_path):
    workload = service_load.ServiceHttp(
        3, trace=True, spans_path=tmp_path / "spans.jsonl"
    )
    try:
        workload.setup()
        outcome = workload.run(2.0)
        assert workload.check(outcome) == 0
    finally:
        workload.close()
    metrics = outcome.notes["server_layers"]
    # Cold variants of the mix are analysed and planned; the hard regime
    # runs on backtracking; sharded counts partition and fan out.
    for name in (
        *SERVICE_ONLY, "analysis.calls", "analysis.self_ms", "planner.self_ms",
        "backtracking.calls", "sharding.partition.calls", "runtime.tasks",
    ):
        assert metrics[name] > 0, name
    assert 0 < metrics["planner.plan_cache_hit_ratio"] < 1
    assert outcome.notes["engine_ms"] > 0
    assert metrics["database.append.rows"] == 0
    assert metrics["incremental.refresh.self_ms"] == 0
    assert (tmp_path / "spans.jsonl").stat().st_size > 0
