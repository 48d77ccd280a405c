"""Service metrics: request counters plus a latency window, JSON-ready.

``/stats`` surfaces three layers of counters in one document:

* **service** — this module: requests per endpoint, responses per status,
  sheds, deadline expiries, and p50/p99/max over a sliding window of
  request latencies (a bounded reservoir of the most recent completions —
  percentiles of a serving process should describe *now*, not its whole
  uptime);
* **admission** — the bounded queue (in-flight, queued, shed);
* **tenants** — each live tenant session's own ``stats()``: the engine's
  LRU cache hit rates, fan-out tasks per runtime, and sharding-ladder
  counters, exactly as the library reports them.

Everything is plain ints/floats/strings so ``json.dumps`` needs no help.
"""

from __future__ import annotations

import threading
from collections import Counter, deque

#: Latency reservoir size: big enough for stable p99 at smoke scale, small
#: enough to never matter for memory.
_WINDOW = 4096


def percentile(samples: list, fraction: float) -> float | None:
    """Nearest-rank percentile of ``samples`` (returns ``None`` on empty)."""
    if not samples:
        return None
    ordered = sorted(samples)
    rank = min(len(ordered) - 1, max(0, round(fraction * (len(ordered) - 1))))
    return ordered[rank]


class LatencyWindow:
    def __init__(self, maxlen: int = _WINDOW) -> None:
        self._samples: deque = deque(maxlen=maxlen)
        self.count = 0
        self.total_seconds = 0.0

    def record(self, seconds: float) -> None:
        self._samples.append(seconds)
        self.count += 1
        self.total_seconds += seconds

    def snapshot(self) -> dict:
        samples = list(self._samples)
        return {
            "count": self.count,
            "window": len(samples),
            "mean_seconds": (
                self.total_seconds / self.count if self.count else None
            ),
            "p50_seconds": percentile(samples, 0.50),
            "p99_seconds": percentile(samples, 0.99),
            "max_seconds": max(samples) if samples else None,
        }


class ServiceMetrics:
    """Counters for the front door (thread-safe; recorded from the event
    loop, read from any test thread through ``/stats``)."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.requests: Counter = Counter()
        self.responses: Counter = Counter()
        self.shed = 0
        self.deadline_exceeded = 0
        self.cancelled = 0
        self.latency = LatencyWindow()
        self.by_endpoint: dict = {}

    def record(self, endpoint: str, status: int, seconds: float) -> None:
        with self._lock:
            self.requests[endpoint] += 1
            self.responses[str(status)] += 1
            if status == 503:
                self.shed += 1
            self.latency.record(seconds)
            window = self.by_endpoint.get(endpoint)
            if window is None:
                window = self.by_endpoint[endpoint] = LatencyWindow()
            window.record(seconds)

    def record_deadline_exceeded(self) -> None:
        with self._lock:
            self.deadline_exceeded += 1

    def record_cancelled(self) -> None:
        with self._lock:
            self.cancelled += 1

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "requests_by_endpoint": dict(self.requests),
                "responses_by_status": dict(self.responses),
                "shed": self.shed,
                "deadline_exceeded": self.deadline_exceeded,
                "cancelled": self.cancelled,
                "latency": self.latency.snapshot(),
                "latency_by_endpoint": {
                    endpoint: window.snapshot()
                    for endpoint, window in self.by_endpoint.items()
                },
            }
