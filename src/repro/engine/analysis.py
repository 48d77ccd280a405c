"""The structural analysis pass: certified facts per query hypergraph.

The planner never looks at a query directly — it looks at a
:class:`QueryAnalysis` of the query's hypergraph: acyclicity (with the
witnessing width-1 join tree), and certified ghw bounds with the witnessing
decomposition (reusing :mod:`repro.widths`).  Analyses are memoized in an
:class:`AnalysisCache` keyed on the hypergraph, so a repeated query — the
common case for a serving engine — skips re-decomposition entirely.

Cost discipline: the cheap facts (GYO acyclicity + join tree) are computed
eagerly on construction; the ghw decomposition search only runs on first
access to :attr:`QueryAnalysis.ghw_bounds` and is then memoized.  Acyclic
queries therefore never pay for a decomposition search —
:attr:`QueryAnalysis.searched_decomposition` stays ``False``, which the
planner dispatch tests assert.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict

from repro.hypergraphs.hypergraph import Hypergraph
from repro.widths.acyclicity import join_tree_decomposition
from repro.widths.ghd import GeneralizedHypertreeDecomposition
from repro.widths.ghw import GHWResult, ghw_upper_bound


class QueryAnalysis:
    """Memoized structural facts about one query hypergraph."""

    __slots__ = (
        "hypergraph",
        "is_acyclic",
        "join_tree",
        "_ghw_bounds",
        "searched_decomposition",
        "analysis_seconds",
    )

    def __init__(self, hypergraph: Hypergraph) -> None:
        start = time.perf_counter()
        self.hypergraph = hypergraph
        self.join_tree: GeneralizedHypertreeDecomposition | None = (
            join_tree_decomposition(hypergraph)
        )
        # join_tree_decomposition returns None exactly when the GYO reduction
        # fails (cyclic) or there is no non-empty edge (trivially acyclic, but
        # nothing to build a tree over) — so acyclicity needs no second GYO run.
        self.searched_decomposition = False
        self._ghw_bounds: GHWResult | None = None
        if self.join_tree is not None:
            self.is_acyclic = True
            self._ghw_bounds = GHWResult(1, 1, self.join_tree)
        elif not any(edge for edge in hypergraph.edges):
            # No non-empty edge: nothing to decompose (ghw 0 by convention).
            self.is_acyclic = True
            self._ghw_bounds = GHWResult(0, 0, None)
        else:
            self.is_acyclic = False
        self.analysis_seconds = time.perf_counter() - start

    @property
    def ghw_bounds(self) -> GHWResult:
        """Certified ghw bounds with the witnessing GHD (search runs once,
        lazily — acyclic hypergraphs answer from the join tree instead)."""
        if self._ghw_bounds is None:
            start = time.perf_counter()
            self._ghw_bounds = ghw_upper_bound(self.hypergraph)
            self.searched_decomposition = True
            self.analysis_seconds += time.perf_counter() - start
        return self._ghw_bounds

    @property
    def decomposition(self) -> GeneralizedHypertreeDecomposition | None:
        """The witnessing decomposition behind the ghw upper bound."""
        return self.ghw_bounds.decomposition

    def __repr__(self) -> str:
        width = "?" if self._ghw_bounds is None else self._ghw_bounds.upper
        return (
            f"QueryAnalysis({self.hypergraph!r}, acyclic={self.is_acyclic}, "
            f"ghw<={width})"
        )


class LRUCache:
    """The engine's cache primitive: a bounded LRU with hit/miss counters.

    Every memo the engine keeps — analyses, cores, plans — is an instance of
    this class *owned by a session*, so cache state is never process-global:
    tests isolate it by constructing a fresh session, and two sessions can
    never poison each other's entries.

    Instances are **thread-safe**: ``get``'s recency bump and ``put``'s
    eviction loop both mutate the underlying :class:`OrderedDict`, and a
    serving process drives shared caches from many threads at once —
    unlocked, concurrent calls could raise mid-``move_to_end`` or corrupt
    the LRU order.  Every public method serializes on one internal lock;
    the critical sections are dict operations, far cheaper than the work
    the cache memoizes.  (Compound operations such as
    :meth:`AnalysisCache.get_or_create` are *not* atomic: two threads
    missing simultaneously may both compute, and the second ``put`` wins —
    a duplicated pure computation, never corruption.)
    """

    def __init__(self, maxsize: int) -> None:
        if maxsize < 1:
            raise ValueError(f"{type(self).__name__} needs maxsize >= 1")
        self.maxsize = maxsize
        self._entries: OrderedDict = OrderedDict()
        self._cache_lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def get(self, key, default=None):
        with self._cache_lock:
            try:
                value = self._entries[key]
            except KeyError:
                self.misses += 1
                return default
            self.hits += 1
            self._entries.move_to_end(key)
            return value

    def put(self, key, value) -> None:
        with self._cache_lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)

    def __len__(self) -> int:
        with self._cache_lock:
            return len(self._entries)

    def __contains__(self, key) -> bool:
        with self._cache_lock:
            return key in self._entries

    def clear(self) -> None:
        """Drop every entry *and* zero the hit/miss counters.

        A cleared cache restarts cold; counters surviving a clear used to
        make post-clear hit rates unreadable (hits from evicted state
        counted against the fresh cache's misses).
        """
        with self._cache_lock:
            self._entries.clear()
            self.hits = 0
            self.misses = 0

    def snapshot(self) -> list:
        """A point-in-time ``[(key, value), ...]`` copy, oldest first."""
        with self._cache_lock:
            return list(self._entries.items())

    def info(self) -> dict:
        with self._cache_lock:
            return {
                "size": len(self._entries),
                "maxsize": self.maxsize,
                "hits": self.hits,
                "misses": self.misses,
            }

    def stats(self) -> dict:
        """Alias of :meth:`info`, matching ``EngineSession.stats()`` so every
        cache in the engine reports counters under one method name."""
        return self.info()


class AnalysisCache(LRUCache):
    """An LRU cache of :class:`QueryAnalysis`, keyed on the hypergraph.

    :class:`~repro.hypergraphs.hypergraph.Hypergraph` is immutable and hashes
    on its ``(vertices, edges)`` structure, so two structurally equal
    hypergraphs — even distinct objects rebuilt per request — share one
    analysis, while any copy-on-write derivative (``delete_vertex``,
    ``add_edge``, ``merge_on_vertex``, ...) differs structurally, hashes
    differently, and gets a fresh analysis: a derived query can never reuse a
    stale decomposition.
    """

    def get_or_create(self, hypergraph: Hypergraph) -> QueryAnalysis:
        analysis = self.get(hypergraph)
        if analysis is None:
            analysis = QueryAnalysis(hypergraph)
            self.put(hypergraph, analysis)
        return analysis
