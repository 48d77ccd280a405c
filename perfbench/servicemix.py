"""Inputs of the ``service_http`` workload, shared by the server
launcher and the load generator (both rebuild the dataset; the generator
builds the traffic from the run's seed).

One dataset: ``mixed_batch(DATASET_SEED, copies=1)``, every scenario of
all six regimes at the small size, namespaced into one database.  The
dataset is the service's resident state and is the same for every run;
the run's seed drives the traffic: the order in which scenarios are
picked, which of each scenario's ``VARIANTS`` variable-renamed copies is
sent (Zipf popularity over a seeded ranking) and the endpoint of each
request.  There are more distinct queries (about 2200) than the
512-entry plan cache holds: each scenario's popular variants stay
cached, its tail is planned cold.

The make-up of the traffic is fixed by decks rather than drawn
independently per request: every scenario is picked once per pass over
a seeded permutation, and every ``DECK`` consecutive requests (one
operation of the workload) hold the endpoints in the exact shares of
``MIX``.  Every run then sends the same kinds of request in the same
proportions, whatever the seed.
"""

from __future__ import annotations

import bisect
import json
import random

from repro.cq import workloads as cqworkloads
from repro.cq.query import Atom, ConjunctiveQuery, Constant
from repro.engine.session import canonical_query_key
from repro.service.codec import query_to_json

DATASET = "bench"
DATASET_SEED = 12
VARIANTS = 24
ZIPF_EXPONENT = 1.0
BATCH_SIZE = 8
#: (requests per deck, endpoint, extra payload fields): 35% answer, 25%
#: count, 25% is_satisfiable, 10% sharded count, 5% batch.
MIX = (
    (7, "answer", {}),
    (5, "count", {}),
    (5, "is_satisfiable", {}),
    (2, "count", {"shards": 2}),
    (1, "batch", {"task": "answer"}),
)
#: Requests per deck: one operation of the workload.
DECK = sum(share for share, _endpoint, _extra in MIX)


def dataset():
    """``(base queries, database)`` of the workload."""
    return cqworkloads.mixed_batch(seed=DATASET_SEED, copies=1, size="small")


def _renamed(query: ConjunctiveQuery, suffix: str) -> ConjunctiveQuery:
    def rename(term):
        return term if isinstance(term, Constant) else f"{term}{suffix}"

    return ConjunctiveQuery(
        [Atom(atom.relation, [rename(t) for t in atom.terms]) for atom in query.atoms],
        free_variables=[rename(v) for v in query.free_variables],
    )


class RequestMix:
    """A seeded stream of request bodies over the workload's queries.

    Each request is ``(path, body bytes, [(class key, task), ...])``; the
    class key is the canonical key of the base query, which every renamed
    variant shares (so one reference answer serves all variants).
    """

    def __init__(self, seed: int) -> None:
        self.base, self.database = dataset()
        rng = random.Random(f"perfbench|service|{seed}")
        self.keys = [canonical_query_key(query) for query in self.base]
        #: Canonical key -> base query (every renamed variant shares it).
        self.by_key = dict(zip(self.keys, self.base))
        self.variants = []
        for query in self.base:
            variants = [query_to_json(_renamed(query, f"_v{v}")) for v in range(VARIANTS)]
            rng.shuffle(variants)
            self.variants.append(variants)
        self._cumulative = []
        total = 0.0
        for rank in range(VARIANTS):
            total += 1.0 / (rank + 1) ** ZIPF_EXPONENT
            self._cumulative.append(total)
        self.rng = rng
        self._scenarios: list = []
        self._endpoints: list = []

    def _pick(self):
        if not self._scenarios:
            self._scenarios = list(range(len(self.base)))
            self.rng.shuffle(self._scenarios)
        index = self._scenarios.pop()
        point = self.rng.random() * self._cumulative[-1]
        return index, self.variants[index][bisect.bisect_left(self._cumulative, point)]

    def next(self) -> tuple:
        if not self._endpoints:
            self._endpoints = [
                (endpoint, extra) for share, endpoint, extra in MIX for _ in range(share)
            ]
            self.rng.shuffle(self._endpoints)
        endpoint, extra = self._endpoints.pop()
        payload = {"dataset": DATASET, **extra}
        if endpoint == "batch":
            picks = [self._pick() for _ in range(BATCH_SIZE)]
            payload["queries"] = [query for _, query in picks]
            expects = [(self.keys[index], "answer") for index, _ in picks]
        else:
            index, query = self._pick()
            payload["query"] = query
            expects = [(self.keys[index], endpoint)]
        return f"/{endpoint}", json.dumps(payload).encode("utf-8"), expects

    def take(self, count: int) -> list:
        return [self.next() for _ in range(count)]
