"""The core :class:`Hypergraph` data structure.

A hypergraph ``H`` is a pair ``(V(H), E(H))`` where ``V(H)`` is a finite set of
vertices and ``E(H)`` is a set of subsets of ``V(H)`` (Section 2 of the paper).
Edges are stored with *set semantics*: two atoms of a conjunctive query with
the same variable scope induce a single hyperedge, and deleting a vertex can
collapse two edges into one.  This matches the paper's convention that
``E(H)`` is a set, which is load-bearing in several proofs (e.g. Lemma B.1).

Vertices may be any hashable objects (strings, integers, tuples, frozensets);
the dual construction in :mod:`repro.hypergraphs.duality` uses edges of ``H``
directly as vertices of ``H^d``.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable, Iterator
from typing import Callable


Vertex = Hashable
Edge = frozenset


class Hypergraph:
    """A finite hypergraph with set-semantics edges.

    Parameters
    ----------
    vertices:
        Iterable of vertices.  Vertices occurring in edges are added
        automatically, so this parameter is only needed for isolated vertices.
    edges:
        Iterable of vertex collections; each becomes a ``frozenset`` edge.
        Duplicate edges collapse.  Empty edges are allowed (they appear as
        intermediate states of dilution sequences) but most constructions
        remove them.

    Examples
    --------
    >>> h = Hypergraph(edges=[{"x", "y"}, {"y", "z"}])
    >>> sorted(h.vertices)
    ['x', 'y', 'z']
    >>> h.degree("y")
    2
    >>> h.rank()
    2
    """

    __slots__ = ("_vertices", "_edges", "_incidence", "_adjacency", "_hash")

    def __init__(
        self,
        vertices: Iterable[Vertex] = (),
        edges: Iterable[Iterable[Vertex]] = (),
    ) -> None:
        edge_set = frozenset(frozenset(e) for e in edges)
        vertex_set = set(vertices)
        for edge in edge_set:
            vertex_set.update(edge)
        self._vertices: frozenset = frozenset(vertex_set)
        self._edges: frozenset = edge_set
        self._incidence = None
        self._adjacency = None
        self._hash = None

    @classmethod
    def _make(cls, vertices: frozenset, edges: frozenset) -> "Hypergraph":
        """Trusted copy-on-write constructor: adopt already-normalised parts.

        ``vertices`` must be a frozenset containing every vertex of every edge
        and ``edges`` a frozenset of frozensets.  The structural-modification
        methods below satisfy this by construction, so derived hypergraphs
        (dilution steps, minors, jigsaw intermediates) skip both the
        re-normalisation and the eager incidence build of ``__init__`` —
        incidence and adjacency are computed lazily, only for the hypergraphs
        that are actually queried.
        """
        hypergraph = object.__new__(cls)
        hypergraph._vertices = vertices
        hypergraph._edges = edges
        hypergraph._incidence = None
        hypergraph._adjacency = None
        hypergraph._hash = None
        return hypergraph

    def __getstate__(self):
        # Ship only the structure: the memoized incidence/adjacency maps and
        # the cached hash are derived data, rebuilt lazily on first use.
        # Keeps pickles compact (process-runtime tasks serialize query
        # hypergraphs) and guarantees a round-trip never resurrects a stale
        # cache.
        return (self._vertices, self._edges)

    def __setstate__(self, state) -> None:
        vertices, edges = state
        self._vertices = vertices
        self._edges = edges
        self._incidence = None
        self._adjacency = None
        self._hash = None

    def _incidence_map(self) -> dict:
        """``vertex -> frozenset of incident edges`` (built on first use)."""
        if self._incidence is None:
            incidence: dict[Vertex, set] = {v: set() for v in self._vertices}
            for edge in self._edges:
                for v in edge:
                    incidence[v].add(edge)
            self._incidence = {v: frozenset(es) for v, es in incidence.items()}
        return self._incidence

    def _adjacency_map(self) -> dict:
        """``vertex -> frozenset of neighbours`` (built on first use)."""
        if self._adjacency is None:
            adjacency: dict[Vertex, set] = {v: set() for v in self._vertices}
            for edge in self._edges:
                for v in edge:
                    adjacency[v].update(edge)
            self._adjacency = {
                v: frozenset(others - {v}) for v, others in adjacency.items()
            }
        return self._adjacency

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def vertices(self) -> frozenset:
        """The vertex set ``V(H)``."""
        return self._vertices

    @property
    def edges(self) -> frozenset:
        """The edge set ``E(H)`` as a frozenset of frozensets."""
        return self._edges

    @property
    def num_vertices(self) -> int:
        return len(self._vertices)

    @property
    def num_edges(self) -> int:
        return len(self._edges)

    @property
    def size(self) -> int:
        """``|V(H)| + |E(H)|``, the measure used in Lemma 3.2(2)."""
        return self.num_vertices + self.num_edges

    def edge_list(self) -> list:
        """The edges in a deterministic order (sorted by sorted vertex repr)."""
        return sorted(self._edges, key=_edge_sort_key)

    def vertex_list(self) -> list:
        """The vertices in a deterministic order."""
        return sorted(self._vertices, key=repr)

    def __contains__(self, vertex: Vertex) -> bool:
        return vertex in self._vertices

    def __iter__(self) -> Iterator[Vertex]:
        return iter(self.vertex_list())

    def __len__(self) -> int:
        return len(self._vertices)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Hypergraph):
            return NotImplemented
        return self._vertices == other._vertices and self._edges == other._edges

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self._vertices, self._edges))
        return self._hash

    def __repr__(self) -> str:
        return (
            f"Hypergraph(|V|={self.num_vertices}, |E|={self.num_edges}, "
            f"degree={self.degree()}, rank={self.rank()})"
        )

    # ------------------------------------------------------------------
    # Incidence, degree, rank
    # ------------------------------------------------------------------
    def incident_edges(self, vertex: Vertex) -> frozenset:
        """``I_v``: the set of edges incident to ``vertex``."""
        if vertex not in self._vertices:
            raise KeyError(f"vertex {vertex!r} not in hypergraph")
        return self._incidence_map()[vertex]

    def degree(self, vertex: Vertex | None = None) -> int:
        """Degree of a vertex, or the maximum degree of the hypergraph."""
        if vertex is not None:
            return len(self.incident_edges(vertex))
        if not self._vertices:
            return 0
        return max(len(es) for es in self._incidence_map().values())

    def rank(self) -> int:
        """``rank(H)``: the maximum edge cardinality."""
        if not self._edges:
            return 0
        return max(len(e) for e in self._edges)

    def has_empty_edge(self) -> bool:
        return frozenset() in self._edges

    def isolated_vertices(self) -> frozenset:
        """Vertices of degree 0."""
        incidence = self._incidence_map()
        return frozenset(v for v in self._vertices if not incidence[v])

    def vertex_type(self, vertex: Vertex) -> frozenset:
        """The *vertex type* of ``vertex``: its set of incident edges ``I_v``."""
        return self.incident_edges(vertex)

    # ------------------------------------------------------------------
    # Structural modifications (all return new hypergraphs)
    # ------------------------------------------------------------------
    def delete_vertex(self, vertex: Vertex, keep_empty_edges: bool = True) -> "Hypergraph":
        """Delete ``vertex`` from the vertex set and from every edge.

        This is dilution operation (1) of Definition 3.1.  Edges that become
        equal after the deletion collapse; an edge that becomes empty is kept
        by default (it is then a proper subedge of any non-empty edge and can
        be removed by the subedge-deletion operation).
        """
        if vertex not in self._vertices:
            raise KeyError(f"vertex {vertex!r} not in hypergraph")
        new_edges = []
        for edge in self._edges:
            reduced = edge - {vertex} if vertex in edge else edge
            if reduced or keep_empty_edges:
                new_edges.append(reduced)
        return Hypergraph._make(self._vertices - {vertex}, frozenset(new_edges))

    def delete_vertices(self, vertices: Iterable[Vertex], keep_empty_edges: bool = False) -> "Hypergraph":
        """Delete several vertices at once (induced subhypergraph on the rest)."""
        to_delete = frozenset(vertices)
        unknown = to_delete - self._vertices
        if unknown:
            raise KeyError(f"vertices {sorted(map(repr, unknown))} not in hypergraph")
        new_edges = []
        for edge in self._edges:
            reduced = edge - to_delete
            if reduced or keep_empty_edges:
                new_edges.append(reduced)
        return Hypergraph._make(self._vertices - to_delete, frozenset(new_edges))

    def induced_subhypergraph(self, vertices: Iterable[Vertex]) -> "Hypergraph":
        """``H[C]``: delete all vertices not in ``vertices`` (dropping empty edges)."""
        keep = frozenset(vertices)
        unknown = keep - self._vertices
        if unknown:
            raise KeyError(f"vertices {sorted(map(repr, unknown))} not in hypergraph")
        return self.delete_vertices(self._vertices - keep, keep_empty_edges=False)

    def delete_edge(self, edge: Iterable[Vertex]) -> "Hypergraph":
        """Remove an edge, keeping all vertices (including newly isolated ones)."""
        target = frozenset(edge)
        if target not in self._edges:
            raise KeyError(f"edge {set(target)!r} not in hypergraph")
        return Hypergraph._make(self._vertices, self._edges - {target})

    def add_edge(self, edge: Iterable[Vertex]) -> "Hypergraph":
        """Add an edge (and any new vertices it mentions)."""
        new_edge = frozenset(edge)
        return Hypergraph._make(self._vertices | new_edge, self._edges | {new_edge})

    def add_vertex(self, vertex: Vertex) -> "Hypergraph":
        """Add an isolated vertex."""
        return Hypergraph._make(self._vertices | {vertex}, self._edges)

    def merge_on_vertex(self, vertex: Vertex) -> "Hypergraph":
        """Dilution operation (3) of Definition 3.1: *merging on* ``vertex``.

        All edges incident to ``vertex`` are replaced by the single new edge
        ``(U I_v) \\ {v}``; the vertex itself is removed from the hypergraph
        (it occurred only in the replaced edges).
        """
        if vertex not in self._vertices:
            raise KeyError(f"vertex {vertex!r} not in hypergraph")
        incident = self.incident_edges(vertex)
        merged: set = set()
        for edge in incident:
            merged.update(edge)
        merged.discard(vertex)
        new_edges = (self._edges - incident) | {frozenset(merged)}
        return Hypergraph._make(self._vertices - {vertex}, new_edges)

    def relabel(self, mapping: Callable[[Vertex], Vertex] | dict) -> "Hypergraph":
        """Relabel vertices via a function or dictionary (must be injective)."""
        if isinstance(mapping, dict):
            func = mapping.__getitem__
        else:
            func = mapping
        new_vertices = [func(v) for v in self._vertices]
        if len(set(new_vertices)) != len(new_vertices):
            raise ValueError("relabelling is not injective")
        new_edges = frozenset(frozenset(func(v) for v in e) for e in self._edges)
        return Hypergraph._make(frozenset(new_vertices), new_edges)

    def canonical_relabel(self) -> tuple["Hypergraph", dict]:
        """Relabel vertices as ``0..n-1`` deterministically; return (H', mapping)."""
        mapping = {v: i for i, v in enumerate(self.vertex_list())}
        return self.relabel(mapping), mapping

    # ------------------------------------------------------------------
    # Connectivity and paths
    # ------------------------------------------------------------------
    def neighbours(self, vertex: Vertex) -> frozenset:
        """Vertices sharing at least one edge with ``vertex`` (excluding itself)."""
        if vertex not in self._vertices:
            raise KeyError(f"vertex {vertex!r} not in hypergraph")
        return self._adjacency_map()[vertex]

    def connected_components(self) -> list[frozenset]:
        """Vertex sets of the maximal connected components (isolated vertices
        form singleton components; empty edges belong to no component)."""
        seen: set = set()
        components: list[frozenset] = []
        for start in self.vertex_list():
            if start in seen:
                continue
            component = {start}
            frontier = [start]
            while frontier:
                v = frontier.pop()
                for u in self.neighbours(v):
                    if u not in component:
                        component.add(u)
                        frontier.append(u)
            seen.update(component)
            components.append(frozenset(component))
        return components

    def is_connected(self) -> bool:
        """True if the hypergraph has at most one connected component."""
        return len(self.connected_components()) <= 1

    def edge_connected_components(self) -> list[frozenset]:
        """Partition of the non-empty edges into connected groups."""
        components = self.connected_components()
        groups: list[set] = [set() for _ in components]
        lookup = {}
        for index, component in enumerate(components):
            for v in component:
                lookup[v] = index
        leftovers: set = set()
        for edge in self._edges:
            if not edge:
                leftovers.add(edge)
                continue
            index = lookup[next(iter(edge))]
            groups[index].add(edge)
        result = [frozenset(g) for g in groups if g]
        if leftovers:
            result.append(frozenset(leftovers))
        return result

    def find_path(self, source: Vertex, target: Vertex) -> list | None:
        """A path ``(v0, e0, v1, ..., e_{l-1}, v_l)`` between two vertices.

        Returns the alternating vertex/edge sequence of Section 2 or ``None``
        if no path exists.  No vertex or edge repeats along the path.
        """
        if source not in self._vertices or target not in self._vertices:
            raise KeyError("path endpoints must be vertices of the hypergraph")
        if source == target:
            return [source]
        # BFS over (vertex, via-edge) transitions.
        from collections import deque

        parents: dict[Vertex, tuple[Vertex, frozenset]] = {}
        queue = deque([source])
        visited = {source}
        while queue:
            v = queue.popleft()
            for edge in self.incident_edges(v):
                for u in edge:
                    if u in visited:
                        continue
                    visited.add(u)
                    parents[u] = (v, edge)
                    if u == target:
                        return _rebuild_path(source, target, parents)
                    queue.append(u)
        return None

    def edges_connected(self, edges: Iterable[frozenset]) -> bool:
        """True if the given edges form a connected subhypergraph
        (edges overlap transitively)."""
        edge_list = [frozenset(e) for e in edges]
        if not edge_list:
            return True
        remaining = set(edge_list)
        component = {edge_list[0]}
        remaining.discard(edge_list[0])
        changed = True
        while changed and remaining:
            changed = False
            for edge in list(remaining):
                if any(edge & other for other in component):
                    component.add(edge)
                    remaining.discard(edge)
                    changed = True
        return not remaining

    # ------------------------------------------------------------------
    # Convenience predicates
    # ------------------------------------------------------------------
    def is_reduced(self) -> bool:
        """True if ``H`` is *reduced*: every vertex has degree >= 1, there is
        no empty edge, and no two vertices have the same vertex type."""
        if self.has_empty_edge():
            return False
        if self.isolated_vertices():
            return False
        seen_types: set = set()
        incidence = self._incidence_map()
        for v in self._vertices:
            vtype = incidence[v]
            if vtype in seen_types:
                return False
            seen_types.add(vtype)
        return True

    def is_subhypergraph_of(self, other: "Hypergraph") -> bool:
        """True if every vertex and edge of ``self`` appears in ``other``."""
        return self._vertices <= other._vertices and self._edges <= other._edges

    def is_graph(self) -> bool:
        """True if every edge has exactly two vertices (2-uniform)."""
        return all(len(e) == 2 for e in self._edges)


def _edge_sort_key(edge: frozenset) -> tuple:
    return (len(edge), sorted(repr(v) for v in edge))


def _rebuild_path(source: Vertex, target: Vertex, parents: dict) -> list:
    sequence: list = [target]
    current = target
    while current != source:
        previous, via = parents[current]
        sequence.append(via)
        sequence.append(previous)
        current = previous
    sequence.reverse()
    return sequence
