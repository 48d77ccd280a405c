"""Server process of the ``service_http`` workload.

Usage: ``python3 perfbench/server.py --trace 0|1 [--spans PATH]``.

Builds the workload dataset, registers it with a
``QueryService`` on the default ``ServiceConfig`` (port 0: a free port) and
prints ``READY <port>``.  It then reads commands from standard input, one
per line:

* ``begin`` — the measured run starts: reset the process-wide statistics
  ledger, the columnar memo counters and the spans; answers ``OK``;
* ``trace on`` / ``trace off`` — start or pause span recording (traced
  server only; the generator alternates traced and untraced decks);
  answers ``OK``;
* ``cpu`` — answers the CPU seconds the process has used so far (all
  threads);
* ``stop`` — stop the service and the engine runtimes, print one JSON line
  with the peak RSS, the tenants' session counters and (when traced) the
  per-layer metrics, write the spans, and exit.

With ``--trace 1`` the layer wrappers are installed before the service is
built, so every engine and front-door call of the server is traced.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import pathlib
import resource
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from repro.cq.columnar import memo_counters, reset_memo_counters  # noqa: E402
from repro.cq.statistics import ledger_snapshot, reset_ledger  # noqa: E402
from repro.engine.runtime import shutdown_runtimes  # noqa: E402
from repro.service import QueryService, ServiceConfig  # noqa: E402

import servicemix  # noqa: E402
import tracing  # noqa: E402
from scenarios import session_counters  # noqa: E402


def engine_counters(service: QueryService, before: dict) -> dict:
    counters = session_counters(service.sessions.stats().values(), before)
    memo = memo_counters()
    ledger = ledger_snapshot()
    counters.update(
        memo_hits=memo["hits"], memo_misses=memo["misses"],
        estimated_rows=ledger["estimated_rows"], actual_rows=ledger["actual_rows"],
        prefilter_rows_dropped=ledger["prefilter_rows_dropped"],
    )
    return counters


async def serve(args) -> dict:
    tracer = tracing.Tracer() if args.trace else None
    if tracer is not None:
        tracer.enabled = False
        tracing.install_service(tracer)
    _queries, database = servicemix.dataset()
    service = QueryService(ServiceConfig())
    service.register_dataset(servicemix.DATASET, database)
    await service.start()
    print(f"READY {service.port}", flush=True)
    loop = asyncio.get_running_loop()
    before: dict = {}
    try:
        while True:
            command = (await loop.run_in_executor(None, sys.stdin.readline)).strip()
            if command == "begin":
                reset_ledger()
                reset_memo_counters()
                before = session_counters(service.sessions.stats().values())
                if tracer is not None:
                    tracer.spans.clear()
                print("OK", flush=True)
            elif command == "cpu":
                print(time.process_time(), flush=True)
            elif command in ("trace on", "trace off"):
                if tracer is not None:
                    tracer.enabled = command == "trace on"
                print("OK", flush=True)
            elif command in ("stop", ""):
                break
    finally:
        await service.stop()
        shutdown_runtimes()
    report = {
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "counters": engine_counters(service, before),
    }
    if tracer is not None:
        tracer.enabled = False
        totals = tracing.aggregate(tracer.spans)
        report["layers"] = tracing.layer_metrics(tracer.spans, report["counters"])
        report["engine_ms"] = totals.get("session.call", {}).get("total", 0.0) * 1000.0
        report["handled_ms"] = totals.get("service.handled", {}).get("total", 0.0) * 1000.0
        if args.spans:
            tracer.write(args.spans)
    return report


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args()
    report = asyncio.run(serve(args))
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
