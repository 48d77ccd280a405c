"""The repository benchmark: one command per workload run.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: ``cyclic_analytics``, ``service_http`` and ``append_refresh``
(see ``perfbench/README.md`` and ``BENCHMARK.json`` for why each exists
and what one operation is).  Inputs are generated from ``--seed``; the
program receives only the generated inputs.

``--trace 0`` sets the workload up ``SETUP_REPEATS`` times (``setup_s`` is
the median), measures for ``--seconds`` seconds with tracing off, checks
every distinct result against an independent path, and prints the
end-to-end metrics; no trace wrapper is installed.  ``--trace 1`` sets up
once with the layer wrappers of ``tracing.py`` installed, alternates traced
and untraced operations for ``--seconds`` seconds, and prints the
per-layer metrics of the traced operations, the raw times of the untraced
ones and ``bench.trace_overhead_pct`` (the traced operations' median
latency over that of the untraced ones).  The last line of standard output
is always one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.

The benchmark runs with a fixed ``PYTHONHASHSEED`` (it re-executes itself
when the variable differs; the server process inherits it).  String
hashes order the engine's sets of variable names, which breaks ties in
its join orders: with a random hash seed per process, runs of the same
inputs differed by a quarter in ``append_refresh``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import pathlib
import resource
import statistics
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SOURCE = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

HASH_SEED = "0"
SETUP_REPEATS = 3
WORKLOADS = ("cyclic_analytics", "service_http", "append_refresh")

END_TO_END_UNITS = {
    "setup_s": "s",
    "rel_cpu_p50": "x",
    "rel_cpu_tail": "x",
    "peak_rss_mb": "MB",
}


def per_layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_ratio") or name.endswith("_factor"):
        return "ratio"
    if name.endswith("_pct"):
        return "%"
    if name.endswith("_per_s"):
        return "1/s"
    return "count"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def make_workload(name: str, seed: int, trace: bool):
    import scenarios
    import service_load

    if name == service_load.ServiceHttp.name:
        OUT_DIR.mkdir(exist_ok=True)
        spans = OUT_DIR / f"spans-{name}-{seed}-server.jsonl" if trace else None
        return service_load.ServiceHttp(seed, trace=trace, spans_path=spans)
    return scenarios.IN_PROCESS[name](seed)


def measure(args, tracer=None, setup_repeats=SETUP_REPEATS) -> dict:
    """Set up, run and check one workload; the raw figures of the run."""
    from repro.cq.columnar import memo_counters, reset_memo_counters
    from repro.cq.statistics import ledger_snapshot, reset_ledger
    from repro.engine.runtime import shutdown_runtimes

    import tracing

    if tracer is not None and args.workload != "service_http":
        # Installed before set-up: sessions bind their planner's analyze
        # hook when they are built.  Recording starts with the run.
        tracer.enabled = False
        tracing.install(tracer, tracing.ENGINE_TARGETS)
    setups = []
    workload = None
    try:
        for _ in range(setup_repeats):
            if workload is not None:
                workload.close()
                workload = None
                gc.collect()
            candidate = make_workload(args.workload, args.seed, tracer is not None)
            started = time.perf_counter()
            try:
                candidate.setup()
            except BaseException:
                candidate.close()
                raise
            setups.append(time.perf_counter() - started)
            workload = candidate
        reset_ledger()
        reset_memo_counters()
        outcome = workload.run(args.seconds, tracer)
        peak_rss_mb = outcome.peak_rss_mb
        if peak_rss_mb is None:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            memo = memo_counters()
            ledger = ledger_snapshot()
            outcome.counters.setdefault("memo_hits", memo["hits"])
            outcome.counters.setdefault("memo_misses", memo["misses"])
            for field in ("estimated_rows", "actual_rows", "prefilter_rows_dropped"):
                outcome.counters.setdefault(field, ledger[field])
        failed = workload.check(outcome)
    finally:
        if workload is not None:
            workload.close()
        shutdown_runtimes()
    return {
        "tail_percentile": workload.tail_percentile,
        "setups": setups,
        "outcome": outcome,
        "failed": failed,
        "peak_rss_mb": peak_rss_mb,
    }


def raw_times(latencies: list, references: list, items_per_op: int, percentile: float) -> dict:
    """Operation latencies and reference CPU times as measured, in
    milliseconds (they move with the machine's speed; see
    ``scenarios.direct``)."""
    import tracing

    busy = sum(latencies)
    return {
        "bench.latency_p50_ms": statistics.median(latencies) * 1000.0,
        "bench.latency_tail_ms": tracing.tail(latencies, percentile)[0] * 1000.0,
        "bench.reference_cpu_ms": statistics.median(references) * 1000.0,
        "bench.ops_per_s": len(latencies) * items_per_op / busy,
    }


def end_to_end(figures: dict) -> dict:
    import tracing

    outcome = figures["outcome"]
    percentile = figures["tail_percentile"]
    relative = outcome.relative
    tail, beyond = tracing.tail(relative, percentile)
    raw = raw_times(outcome.latencies, outcome.references, outcome.items_per_op, percentile)
    print(
        f"# {outcome.ops} operations; rel_cpu_tail is p{percentile * 100:g} "
        f"with {beyond} samples beyond it; setups "
        f"{['%.3f' % s for s in figures['setups']]}; raw "
        + ", ".join(f"{name[6:]}={value:.4g}" for name, value in raw.items()),
        flush=True,
    )
    return {
        "setup_s": statistics.median(figures["setups"]),
        "rel_cpu_p50": statistics.median(relative),
        "rel_cpu_tail": tail,
        "peak_rss_mb": figures["peak_rss_mb"],
    }


def traced(args) -> dict:
    import tracing

    tracer = tracing.Tracer()
    figures = measure(args, tracer, setup_repeats=1)
    outcome = figures["outcome"]
    OUT_DIR.mkdir(exist_ok=True)
    tracer.write(OUT_DIR / f"spans-{args.workload}-{args.seed}.jsonl")
    if "server_layers" in outcome.notes:
        layers = dict(outcome.notes["server_layers"])
        layers["service.engine_ms"] = outcome.notes["engine_ms"]
        layers["service.client_gap_ms"] = max(
            0.0, outcome.notes["rtt_ms"] - outcome.notes["handled_ms"]
        )
    else:
        layers = tracing.layer_metrics(tracer.spans, outcome.counters)
        layers["service.engine_ms"] = 0.0
        layers["service.client_gap_ms"] = 0.0
    layers["service.shed"] = outcome.notes.get("shed", 0)
    on = [lat for lat, flag in zip(outcome.latencies, outcome.traced) if flag]
    off = [lat for lat, flag in zip(outcome.latencies, outcome.traced) if not flag]
    off_references = [ref for ref, flag in zip(outcome.references, outcome.traced) if not flag]
    layers.update(
        raw_times(off, off_references, outcome.items_per_op, figures["tail_percentile"])
    )
    layers["bench.trace_overhead_pct"] = (
        statistics.median(on) / statistics.median(off) - 1.0
    ) * 100.0
    # The share of the traced operations' time each layer's self time
    # takes (for the service: of the clients' summed round trips).
    op_total_ms = outcome.notes.get("rtt_ms", sum(on) * 1000.0)
    shares = sorted(
        ((value / op_total_ms, name) for name, value in layers.items()
         if name.endswith("self_ms") and op_total_ms),
        reverse=True,
    )
    print(
        "# self-time shares: "
        + ", ".join(f"{name}={share:.1%}" for share, name in shares if share >= 0.005),
        flush=True,
    )
    return {
        "correct": figures["failed"] == 0,
        "attempted": outcome.notes.get("requests", outcome.ops),
        "failed": figures["failed"],
        "metrics": {
            name: {"value": value, "unit": per_layer_unit(name)}
            for name, value in layers.items()
        },
    }


def untraced(args) -> dict:
    figures = measure(args)
    outcome = figures["outcome"]
    metrics = end_to_end(figures)
    return {
        "correct": figures["failed"] == 0,
        "attempted": outcome.notes.get("requests", outcome.ops),
        "failed": figures["failed"],
        "metrics": {
            name: {"value": value, "unit": END_TO_END_UNITS[name]}
            for name, value in metrics.items()
        },
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SOURCE / "repro" / "__init__.py").is_file():
        print(f"no program source under {SOURCE}", file=sys.stderr)
        return 2
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        script = str(pathlib.Path(__file__).resolve())
        os.execve(
            sys.executable,
            [sys.executable, script, *(sys.argv[1:] if argv is None else argv)],
            {**os.environ, "PYTHONHASHSEED": HASH_SEED},
        )
    sys.path.insert(0, str(SOURCE))
    result = traced(args) if args.trace else untraced(args)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
