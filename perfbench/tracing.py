"""Layer spans recorded from the benchmark's own files.

:func:`install` wraps the public entry points of each engine layer with a
span recorder.  Each span records its name, start, end, parent span and
operation id. Spans are kept in memory and written out as JSON lines when
the benchmark ends (:meth:`Tracer.write`).  The program itself is not
modified: the wrappers replace module and class attributes at run time.

Several layer functions are imported *by name* into other modules (for
example ``natural_join_all`` into ``repro.cq.columnar`` and
``repro.cq.bags``).  A wrapper installed only on the defining module would
never see those calls, so every function is wrapped in each module that
looks it up.  :func:`install` checks that each of those modules still
binds the very object it wraps.  If a refactor moves an import, the check
fails loudly instead of silently recording nothing.

A span's *self time* is its duration minus the time its child spans (same
thread, nested) cover.  Asynchronous spans (the HTTP parser and the
admission wait, which run on the event loop) are recorded without a
parent, because coroutines interleave on one thread.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import math
import threading
import time

# (span name, [(module path, attribute path), ...], attribute hook name).
# The attribute path is "func" for a module-level function, "Class.method"
# for a method.  Each entry lists every module that binds the function by
# name, so calls are seen wherever the caller looks the function up.
ENGINE_TARGETS = [
    ("analysis", [("repro.engine.session", "EngineSession.analyze")], None),
    ("analysis.ghw", [("repro.engine.analysis", "ghw_upper_bound")], None),
    ("planner", [("repro.engine.session", "EngineSession.plan")], None),
    (
        "session.call",
        [
            ("repro.engine.session", "EngineSession.answer"),
            ("repro.engine.session", "EngineSession.count"),
            ("repro.engine.session", "EngineSession.is_satisfiable"),
        ],
        None,
    ),
    (
        "session.call",
        [
            ("repro.engine.session", "EngineSession.answer_many"),
            ("repro.engine.session", "EngineSession.count_many"),
            ("repro.engine.session", "EngineSession.is_satisfiable_many"),
        ],
        "batch_queries",
    ),
    ("columnar.atom_view", [("repro.cq.database", "Database.columnar_view")], None),
    (
        "columnar.bag_build",
        [("repro.cq.columnar", "build_columnar_bag_tree")],
        None,
    ),
    (
        "columnar.join",
        [
            ("repro.cq.relational", "natural_join_all"),
            ("repro.cq.columnar", "natural_join_all"),
            ("repro.cq.bags", "natural_join_all"),
        ],
        "join",
    ),
    (
        "columnar.reduce",
        [
            ("repro.cq.yannakakis", "yannakakis_full"),
            ("repro.cq.yannakakis", "yannakakis_boolean"),
            ("repro.cq.columnar", "yannakakis_full"),
            ("repro.cq.columnar", "yannakakis_boolean"),
            ("repro.cq.decomposition_eval", "yannakakis_full"),
            ("repro.cq.decomposition_eval", "yannakakis_boolean"),
        ],
        None,
    ),
    (
        "columnar.count_dp",
        [("repro.cq.columnar", "columnar_count_join_tree")],
        None,
    ),
    (
        "columnar.decode",
        [("repro.cq.columnar", "ColumnarRelation.decode_rows")],
        "rows_out",
    ),
    (
        "statistics.estimate",
        [
            ("repro.cq.statistics", "estimate_join_rows"),
            ("repro.cq.statistics", "estimate_semijoin_fraction"),
            ("repro.cq.relational", "estimate_join_rows"),
            ("repro.cq.relational", "estimate_semijoin_fraction"),
            ("repro.cq.yannakakis", "estimate_semijoin_fraction"),
        ],
        None,
    ),
    (
        "backtracking",
        [
            ("repro.engine.backends", "BacktrackingBackend.boolean"),
            ("repro.engine.backends", "BacktrackingBackend.answers"),
            ("repro.engine.backends", "BacktrackingBackend.count"),
        ],
        None,
    ),
    ("database.append", [("repro.cq.database", "Database.add_fact")], None),
    (
        "database.statistics",
        [("repro.cq.statistics", "StatisticsStore.relation_stats")],
        None,
    ),
    (
        "incremental.refresh",
        [("repro.engine.incremental", "IncrementalView.refresh")],
        "refresh",
    ),
    (
        "sharding.partition",
        [("repro.engine.sharding", "ShardedDatabase.partition")],
        None,
    ),
    (
        "runtime.run",
        [
            ("repro.engine.runtime", "InlineRuntime.run"),
            ("repro.engine.runtime", "ThreadRuntime.run"),
            ("repro.engine.runtime", "ProcessRuntime.run"),
        ],
        "runtime",
    ),
]

SERVICE_TARGETS = [
    (
        "service.codec",
        [
            ("repro.service.codec", "query_from_json"),
            ("repro.service.codec", "result_to_json"),
            ("repro.service.app", "query_from_json"),
            ("repro.service.app", "result_to_json"),
        ],
        None,
    ),
]


def _hook_rows_out(result, args, kwargs) -> dict:
    return {"rows": len(result)}


def _hook_join(result, args, kwargs) -> dict:
    # A one-relation pool is returned as is: no join, no output rows.
    pool = args[0] if args else kwargs.get("relations", ())
    return {"rows": len(result) if len(pool) > 1 else 0}


def _hook_batch_queries(result, args, kwargs) -> dict:
    # The session marks each result served by its dedup pass.
    return {
        "queries": len(result),
        "dedup": sum(1 for item in result if "dedup_of" in item.timings),
    }


def _hook_refresh(result, args, kwargs) -> dict:
    record = result.timings.get("incremental") or {}
    return {"mode": record.get("mode"), "delta_rows": record.get("delta_rows", 0)}


HOOKS = {
    "rows_out": _hook_rows_out,
    "join": _hook_join,
    "batch_queries": _hook_batch_queries,
    "refresh": _hook_refresh,
}


class Tracer:
    """In-memory span store.

    A span is the tuple ``(span_id, parent_id, op_id, name, start, end,
    self_seconds, attrs)``.  Each thread keeps its own stack of open spans;
    the outermost span of a thread takes the thread's current operation id
    (set by the workload loop with :meth:`new_operation`) or, when none
    is set, opens a new one.
    """

    def __init__(self) -> None:
        self.spans: list = []
        self.enabled = True
        self._ids = itertools.count(1)
        self._ops = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def new_operation(self) -> int:
        """Start an operation on this thread; its outermost spans carry
        the returned id."""
        op_id = self._local.op_id = next(self._ops)
        return op_id

    def _open(self, parent=None) -> tuple:
        """Push a frame for a new span; ``parent`` (a ``(span_id, op_id)``
        pair) links a span that runs on another thread than its cause."""
        stack = self._stack()
        span_id = next(self._ids)
        if stack:
            parent_id, op_id = stack[-1][0], stack[-1][1]
        elif parent is not None:
            parent_id, op_id = parent
        else:
            parent_id = None
            op_id = getattr(self._local, "op_id", None) or next(self._ops)
        frame = [span_id, op_id, 0.0, parent_id]
        stack.append(frame)
        return stack, frame

    def _close(self, stack, frame, name, start, end, attrs, covered=0.0) -> None:
        stack.pop()
        duration = end - start
        if stack:
            stack[-1][2] += duration
        own = duration - frame[2] - covered
        self.spans.append((frame[0], frame[3], frame[1], name, start, end, own, attrs))

    def wrap(self, name: str, function, hook=None):
        tracer = self

        @functools.wraps(function)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return function(*args, **kwargs)
            stack, frame = tracer._open()
            start = time.perf_counter()
            try:
                result = function(*args, **kwargs)
            except BaseException:
                tracer._close(stack, frame, name, start, time.perf_counter(), None)
                raise
            end = time.perf_counter()
            attrs = hook(result, args, kwargs) if hook is not None else None
            tracer._close(stack, frame, name, start, end, attrs)
            return result

        traced.__wrapped_by_perfbench__ = function
        return traced

    def wrap_runtime(self, name: str, function):
        """``ExecutionRuntime.run(tasks, run_local, ...)``: each task runs
        under a ``runtime.task`` span, linked to the run's span even when
        a pool thread executes it.  The run's self time excludes the time
        covered by tasks on other threads (their union, as they overlap)."""
        tracer = self

        @functools.wraps(function)
        def traced(runtime, tasks, run_local, *args, **kwargs):
            if not tracer.enabled:
                return function(runtime, tasks, run_local, *args, **kwargs)
            stack, frame = tracer._open()
            home = threading.get_ident()
            remote: list = []

            def run_task(task):
                on_home = threading.get_ident() == home
                task_stack, task_frame = tracer._open(
                    None if on_home else (frame[0], frame[1])
                )
                began = time.perf_counter()
                try:
                    return run_local(task)
                finally:
                    ended = time.perf_counter()
                    tracer._close(task_stack, task_frame, "runtime.task", began, ended, None)
                    if not on_home:
                        remote.append((began, ended))

            start = time.perf_counter()

            def close(attrs) -> None:
                covered, reach = 0.0, start
                for began, ended in sorted(remote):
                    covered += max(0.0, ended - max(began, reach))
                    reach = max(reach, ended)
                tracer._close(stack, frame, name, start, time.perf_counter(), attrs, covered)

            try:
                result = function(runtime, tasks, run_task, *args, **kwargs)
            except BaseException:
                close(None)
                raise
            close({
                "tasks": len(tasks),
                "task_seconds": sum(outcome.seconds for outcome in result),
            })
            return result

        traced.__wrapped_by_perfbench__ = function
        return traced

    def record(self, name: str, start: float, end: float, attrs=None) -> None:
        """A parentless span measured by the caller (asynchronous code)."""
        if self.enabled:
            self.spans.append(
                (next(self._ids), None, None, name, start, end, end - start, attrs)
            )

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, parent, op_id, name, start, end, own, attrs in self.spans:
                handle.write(
                    json.dumps(
                        {
                            "id": span_id, "parent": parent, "op": op_id,
                            "name": name, "start": start, "end": end,
                            "self": own, "attrs": attrs,
                        }
                    )
                    + "\n"
                )


def _resolve(module_path: str, attr_path: str):
    module = importlib.import_module(module_path)
    owner_name, _, attr = attr_path.rpartition(".")
    owner = getattr(module, owner_name) if owner_name else module
    return owner, attr


class Installation:
    """The wrappers one :func:`install` call put in place."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._undo: list = []

    def _patch(self, owner, attr, name, hook_name, seen: dict) -> None:
        raw = owner.__dict__.get(attr) if isinstance(owner, type) else None
        is_classmethod = isinstance(raw, classmethod)
        function = raw.__func__ if is_classmethod else getattr(owner, attr)
        wrapped = seen.get(id(function))
        if wrapped is None:
            if hook_name == "runtime":
                wrapped = self.tracer.wrap_runtime(name, function)
            else:
                wrapped = self.tracer.wrap(name, function, HOOKS.get(hook_name))
            seen[id(function)] = wrapped
        replacement = classmethod(wrapped) if is_classmethod else wrapped
        original = owner.__dict__.get(attr) if isinstance(owner, type) else function
        self._undo.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            if original is None:
                delattr(owner, attr)  # the class inherited it
            else:
                setattr(owner, attr, original)
        self._undo.clear()


def install(tracer: Tracer, targets) -> Installation:
    """Wrap every ``targets`` entry point; returns the installation.

    Before patching anything, checks that each module listed for a
    function binds the same object as the first (defining) module, so a
    wrapper can never miss calls made through a by-name import.
    """
    resolved = []
    for name, sites, hook_name in targets:
        originals = {}
        for module_path, attr_path in sites:
            owner, attr = _resolve(module_path, attr_path)
            current = getattr(owner, attr)
            function = getattr(current, "__func__", current)
            if hasattr(function, "__wrapped_by_perfbench__"):
                raise RuntimeError(f"{module_path}.{attr_path} is already traced")
            originals.setdefault(attr_path, []).append((module_path, function))
            resolved.append((owner, attr, name, hook_name))
        for attr, bound in originals.items():
            first_module, first = bound[0]
            for module_path, function in bound[1:]:
                if function is not first:
                    raise RuntimeError(
                        f"{module_path}.{attr} is not {first_module}.{attr}: "
                        "the by-name import moved, update the trace targets"
                    )
    installation = Installation(tracer)
    seen: dict = {}
    for owner, attr, name, hook in resolved:
        installation._patch(owner, attr, name, hook, seen)
    return installation


def install_service(tracer: Tracer) -> Installation:
    """The engine targets plus the service front door (server process).

    ``read_request`` and ``AdmissionController.acquire`` are coroutines;
    their spans are recorded without a parent.  The parse span starts when
    the request's first line has arrived, so idle keep-alive time between
    requests is not counted as parsing.
    """
    from repro.service import admission, app, http, metrics

    installation = install(tracer, ENGINE_TARGETS + SERVICE_TARGETS)
    original_read = http.read_request
    if app.read_request is not original_read:
        raise RuntimeError("repro.service.app.read_request is not http.read_request")

    class _TimedReader:
        """Stream proxy noting when the first line of a request arrived."""

        def __init__(self, reader) -> None:
            self._reader = reader
            self.first_byte = None

        async def readline(self):
            line = await self._reader.readline()
            if self.first_byte is None:
                self.first_byte = time.perf_counter()
            return line

        async def readexactly(self, count):
            return await self._reader.readexactly(count)

    async def traced_read_request(reader, max_body_bytes):
        timed = _TimedReader(reader)
        request = await original_read(timed, max_body_bytes)
        if request is not None and timed.first_byte is not None:
            tracer.record("service.http.parse", timed.first_byte, time.perf_counter())
        return request

    original_acquire = admission.AdmissionController.acquire

    async def traced_acquire(self):
        start = time.perf_counter()
        try:
            await original_acquire(self)
        finally:
            tracer.record("service.admission", start, time.perf_counter())

    original_record = metrics.ServiceMetrics.record

    def traced_record(self, endpoint, status, seconds):
        # Called once per request with the server-side handling time.
        end = time.perf_counter()
        tracer.record("service.handled", end - seconds, end, {"status": status})
        return original_record(self, endpoint, status, seconds)

    for owner, attr, replacement, original in (
        (http, "read_request", traced_read_request, original_read),
        (app, "read_request", traced_read_request, original_read),
        (admission.AdmissionController, "acquire", traced_acquire, original_acquire),
        (metrics.ServiceMetrics, "record", traced_record, original_record),
    ):
        installation._undo.append((owner, attr, original))
        setattr(owner, attr, replacement)
    return installation


# ----------------------------------------------------------------------
# Per-layer metrics from the spans
# ----------------------------------------------------------------------
def _ratio(numerator, denominator) -> float:
    return numerator / denominator if denominator else 0.0


def _error_factor(estimated, actual) -> float:
    """Estimated over actual rows, folded around 1 (``max(e/a, a/e)``) so
    that lower is better; 0 when no join was estimated."""
    if not estimated or not actual:
        return 0.0
    return max(estimated / actual, actual / estimated)


def aggregate(spans: list) -> dict:
    """Per span name: calls, self seconds, total seconds and summed attrs."""
    totals: dict = {}
    for _id, _parent, _op, name, start, end, own, attrs in spans:
        entry = totals.setdefault(
            name, {"calls": 0, "self": 0.0, "total": 0.0, "attrs": {}, "durations": []}
        )
        entry["calls"] += 1
        entry["self"] += own
        entry["total"] += end - start
        entry["durations"].append(end - start)
        if attrs:
            for key, value in attrs.items():
                if isinstance(value, (int, float)) and not isinstance(value, bool):
                    entry["attrs"][key] = entry["attrs"].get(key, 0) + value
                else:
                    counts = entry["attrs"].setdefault(key, {})
                    counts[value] = counts.get(value, 0) + 1
    return totals


def layer_metrics(spans: list, counters: dict) -> dict:
    """The per-layer metric values (see ``BENCHMARK.json``) from the spans
    plus the engine counters read at the end of the traced run.

    ``counters`` holds: ``analysis_hits``/``analysis_misses``,
    ``plan_hits``/``plan_misses``, ``memo_hits``/``memo_misses``,
    ``estimated_rows``/``actual_rows`` and ``prefilter_rows_dropped``.
    They cover the whole traced run, untraced operations included (the
    ratios behave the same on both halves).
    """
    totals = aggregate(spans)

    def get(name):
        return totals.get(
            name, {"calls": 0, "self": 0.0, "total": 0.0, "attrs": {}, "durations": []}
        )

    def self_ms(*names):
        return sum(get(name)["self"] for name in names) * 1000.0

    join = get("columnar.join")
    decode = get("columnar.decode")
    refresh = get("incremental.refresh")
    modes = refresh["attrs"].get("mode", {})
    append = get("database.append")
    runtime = get("runtime.run")
    calls = get("session.call")
    metrics = {
        "analysis.calls": get("analysis")["calls"],
        "analysis.self_ms": self_ms("analysis", "analysis.ghw"),
        "analysis.cache_hit_ratio": _ratio(
            counters.get("analysis_hits", 0),
            counters.get("analysis_hits", 0) + counters.get("analysis_misses", 0),
        ),
        "planner.self_ms": self_ms("planner"),
        "planner.plan_cache_hit_ratio": _ratio(
            counters.get("plan_hits", 0),
            counters.get("plan_hits", 0) + counters.get("plan_misses", 0),
        ),
        "session.dedup_ratio": _ratio(
            calls["attrs"].get("dedup", 0), calls["attrs"].get("queries", 0)
        ),
        "columnar.atom_view.self_ms": self_ms("columnar.atom_view"),
        "columnar.bag_build.self_ms": self_ms("columnar.bag_build"),
        "columnar.join.calls": join["calls"],
        "columnar.join.self_ms": self_ms("columnar.join"),
        "columnar.join.rows_out": join["attrs"].get("rows", 0),
        "columnar.reduce.self_ms": self_ms("columnar.reduce"),
        "columnar.count_dp.self_ms": self_ms("columnar.count_dp"),
        "columnar.decode.self_ms": self_ms("columnar.decode"),
        "columnar.decode.rows": decode["attrs"].get("rows", 0),
        "columnar.memo_hit_ratio": _ratio(
            counters.get("memo_hits", 0),
            counters.get("memo_hits", 0) + counters.get("memo_misses", 0),
        ),
        "statistics.estimate.calls": get("statistics.estimate")["calls"],
        "statistics.estimate.self_ms": self_ms("statistics.estimate"),
        "statistics.est_error_factor": _error_factor(
            counters.get("estimated_rows", 0), counters.get("actual_rows", 0)
        ),
        "statistics.prefilter_rows_dropped": counters.get("prefilter_rows_dropped", 0),
        "backtracking.calls": get("backtracking")["calls"],
        "backtracking.self_ms": self_ms("backtracking"),
        "database.append.rows": append["calls"],
        "database.append.self_ms": self_ms("database.append"),
        "database.append.rows_per_s": _ratio(append["calls"], append["total"]),
        "database.statistics.self_ms": self_ms("database.statistics"),
        "incremental.refresh.self_ms": self_ms("incremental.refresh"),
        "incremental.refresh.p50_ms": tail(refresh["durations"], 0.5)[0] * 1000.0,
        "incremental.refresh.tail_ms": tail(refresh["durations"], 0.9)[0] * 1000.0,
        "incremental.delta_rows": refresh["attrs"].get("delta_rows", 0),
        "incremental.incremental_mode_ratio": _ratio(
            modes.get("incremental", 0), refresh["calls"]
        ),
        "sharding.partition.calls": get("sharding.partition")["calls"],
        "sharding.partition.self_ms": self_ms("sharding.partition"),
        "runtime.tasks": runtime["attrs"].get("tasks", 0),
        "runtime.run.self_ms": self_ms("runtime.run"),
        # Run time minus the summed task seconds, per run: with two
        # worker threads the tasks overlap and this floors at zero.
        "runtime.wait_ms": sum(
            max(0.0, end - start - attrs["task_seconds"])
            for _id, _parent, _op, name, start, end, _own, attrs in spans
            if name == "runtime.run" and attrs
        ) * 1000.0,
        "service.http.parse_ms": get("service.http.parse")["total"] * 1000.0,
        "service.codec_ms": get("service.codec")["total"] * 1000.0,
        "service.admission.wait_ms": get("service.admission")["total"] * 1000.0,
    }
    return metrics


def tail(values: list, fraction: float) -> tuple:
    """The ``fraction`` percentile (nearest rank) and how many samples lie
    beyond it: ``(value, beyond)``."""
    if not values:
        return 0.0, 0
    ordered = sorted(values)
    index = min(len(ordered) - 1, max(0, math.ceil(fraction * len(ordered)) - 1))
    return ordered[index], len(ordered) - 1 - index
