"""The ``service_http`` workload: a load generator against the HTTP
service running in its own process (``server.py``).

One generator process with ``CONNECTIONS`` keep-alive connections, in a
closed loop.  One operation is one *deck*: the next ``servicemix.DECK``
requests of the mix (every endpoint in its exact share), sent back to
back over both connections; the deck's latency runs until its last
response, and its cost is the CPU time the server and the generator spent
on it (the server reports its own through the command channel).  After
each deck, while the server is idle, the generator runs
the reference job (see ``scenarios.direct``): it evaluates a fixed quarter
of the dataset's scenario queries directly (``oracles.enumerate_answers``
on its own copy of the dataset).  The job is the same after every deck:
a deck's own queries would make a reference whose size swings with the
one or two heavy scenarios a deck happens to hold.

An open loop (a seeded Poisson schedule at a fixed rate, each request's
latency counted from the moment it was due) was tried first and dropped.
Queueing behind a late request makes open-loop latency grow faster than
the machine slows, so no reference job run beside it could take the
machine's drift out, and its p90 moved by 0.3-0.4 of its median between
runs of the same code.
"""

from __future__ import annotations

import http.client
import json
import pathlib
import subprocess
import sys
import threading
import time

from repro.cq.homomorphism import naive_enumerate_answers

import oracles
import servicemix
from scenarios import Outcome, direct

HERE = pathlib.Path(__file__).resolve().parent

CONNECTIONS = 2
#: Decks sent in set-up, so the popular head of the mix is warm the way a
#: long-running service would have it.
WARMUP_DECKS = 20
#: The reference job evaluates every ``REFERENCE_STRIDE``-th scenario query.
REFERENCE_STRIDE = 4


class _Sender:
    """Sends batches of requests over ``CONNECTIONS`` keep-alive
    connections."""

    def __init__(self, port: int) -> None:
        self.connections = [
            http.client.HTTPConnection("127.0.0.1", port, timeout=60)
            for _ in range(CONNECTIONS)
        ]

    def close(self) -> None:
        for connection in self.connections:
            connection.close()

    def run(self, requests: list) -> list:
        """Send ``requests`` back to back, each connection taking the next
        unsent one; returns one ``(sent, done, status, body)`` record per
        request."""
        records: list = [None] * len(requests)
        cursor = iter(range(len(requests)))
        lock = threading.Lock()

        def worker(connection) -> None:
            while True:
                with lock:
                    index = next(cursor, None)
                if index is None:
                    return
                path, body, _expects = requests[index]
                sent = time.perf_counter()
                try:
                    connection.request(
                        "POST", path, body=body,
                        headers={"Content-Type": "application/json"},
                    )
                    response = connection.getresponse()
                    payload = response.read()
                    status = response.status
                except (http.client.HTTPException, OSError) as exc:
                    connection.close()
                    payload, status = repr(exc).encode(), 0
                records[index] = (sent, time.perf_counter(), status, payload)

        threads = [
            threading.Thread(target=worker, args=(connection,))
            for connection in self.connections
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return records


class ServiceHttp:
    name = "service_http"
    #: About 150 decks in 25 s: p90 leaves about 15 beyond it.
    tail_percentile = 0.9

    def __init__(self, seed: int, trace: bool = False, spans_path=None) -> None:
        self.seed = seed
        self.trace = trace
        self.spans_path = spans_path
        self.process = None
        self.sender = None

    # -- server process ---------------------------------------------------
    def setup(self) -> None:
        command = [sys.executable, str(HERE / "server.py"), "--trace", "1" if self.trace else "0"]
        if self.spans_path:
            command += ["--spans", str(self.spans_path)]
        self.process = subprocess.Popen(
            command, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
        )
        line = self.process.stdout.readline().split()
        if len(line) != 2 or line[0] != "READY":
            self.close()
            raise RuntimeError(f"server did not start: {line!r}")
        self.port = int(line[1])
        self.mix = servicemix.RequestMix(self.seed)
        self.reference_queries = self.mix.base[::REFERENCE_STRIDE]
        self.sender = _Sender(self.port)
        for _ in range(WARMUP_DECKS):
            self.sender.run(self.mix.take(servicemix.DECK))

    def _command(self, command: str) -> str:
        self.process.stdin.write(command + "\n")
        self.process.stdin.flush()
        return self.process.stdout.readline()

    def close(self) -> None:
        if self.sender is not None:
            self.sender.close()
            self.sender = None
        if self.process is not None:
            if self.process.poll() is None:
                try:
                    self.process.stdin.close()
                    self.process.wait(timeout=30)
                except subprocess.TimeoutExpired:
                    self.process.kill()
                    self.process.wait()
            self.process = None

    # -- measured run -------------------------------------------------------
    def run(self, seconds: float, tracer=None) -> Outcome:
        if self._command("begin").strip() != "OK":
            raise RuntimeError("server did not acknowledge the run")
        outcome = Outcome(items_per_op=servicemix.DECK)
        self.responses = []
        rtts = []
        database = self.mix.database
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:
            # A traced run alternates untraced and traced decks, so the
            # tracing overhead is measured against the same server process.
            traced = self.trace and outcome.ops % 2 == 1
            if self.trace:
                self._command("trace on" if traced else "trace off")
            requests = self.mix.take(servicemix.DECK)
            server_cpu = float(self._command("cpu"))
            started, started_cpu = time.perf_counter(), time.process_time()
            records = self.sender.run(requests)
            outcome.latencies.append(time.perf_counter() - started)
            client_cpu = time.process_time() - started_cpu
            outcome.costs.append(float(self._command("cpu")) - server_cpu + client_cpu)
            outcome.traced.append(traced)
            for request, (sent, done, status, body) in zip(requests, records):
                if traced:
                    rtts.append(done - sent)
                if status != 200:
                    outcome.failed += 1
                    outcome.notes["shed"] = outcome.notes.get("shed", 0) + (status == 503)
                else:
                    self.responses.append((request[2], body))
            outcome.references.append(direct(
                lambda: [oracles.enumerate_answers(query, database)
                         for query in self.reference_queries]
            ))
        if self.trace:
            self._command("trace off")
        # Close the client side first, so the server stops with no request
        # in flight.
        self.sender.close()
        self.sender = None
        report = json.loads(self._command("stop"))
        self.process.wait(timeout=60)
        self.process = None
        outcome.peak_rss_mb = report["peak_rss_mb"]
        outcome.counters = report["counters"]
        outcome.notes.update(
            rtt_ms=sum(rtts) * 1000.0,
            requests=outcome.ops * servicemix.DECK,
        )
        if "layers" in report:
            outcome.notes["server_layers"] = report["layers"]
            outcome.notes["engine_ms"] = report["engine_ms"]
            outcome.notes["handled_ms"] = report["handled_ms"]
        return outcome

    def check(self, outcome: Outcome) -> int:
        database = self.mix.database
        references = {
            key: naive_enumerate_answers(query, database)
            for key, query in self.mix.by_key.items()
        }
        failed = 0
        for expects, body in self.responses:
            payload = json.loads(body)
            results = payload["results"] if "results" in payload else [payload]
            for (key, task), result in zip(expects, results):
                rows = references[key]
                if task == "answer":
                    ok = {tuple(row) for row in result["rows"]} == rows
                elif task == "count":
                    ok = result["value"] == len(rows)
                else:
                    ok = result["value"] == bool(rows)
                if not ok:
                    print(f"WRONG {self.name}: {task} {key}")
                    failed += 1
                    break
        return outcome.failed + failed
