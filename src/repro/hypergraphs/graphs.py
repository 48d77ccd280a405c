"""Simple (2-uniform) graphs and standard graph families.

The paper treats graphs as 2-uniform hypergraphs.  This module provides a
small :class:`Graph` convenience layer on top of :class:`Hypergraph` together
with the graph families used throughout the paper: grids (for the Excluded
Grid Theorem), cycles, paths, stars, and cliques.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable

from repro.hypergraphs.hypergraph import Hypergraph

Vertex = Hashable


class Graph(Hypergraph):
    """A simple undirected graph: a hypergraph whose edges all have size 2."""

    def __init__(
        self,
        vertices: Iterable[Vertex] = (),
        edges: Iterable[Iterable[Vertex]] = (),
    ) -> None:
        normalised = []
        for edge in edges:
            e = frozenset(edge)
            if len(e) != 2:
                raise ValueError(f"graph edges must have exactly 2 vertices, got {set(e)!r}")
            normalised.append(e)
        super().__init__(vertices, normalised)

    # ------------------------------------------------------------------
    def adjacency(self) -> dict:
        """Adjacency mapping vertex -> frozenset of neighbours."""
        return {v: self.neighbours(v) for v in self.vertices}

    def has_edge(self, u: Vertex, v: Vertex) -> bool:
        return frozenset({u, v}) in self.edges

    def contract_edge(self, u: Vertex, v: Vertex, merged_name: Vertex | None = None) -> "Graph":
        """Contract the edge ``{u, v}``: the constructive minor operation.

        The two endpoints are replaced by a single new vertex adjacent to the
        union of their neighbourhoods (minus the removed edge).
        """
        if not self.has_edge(u, v):
            raise ValueError(f"{u!r} and {v!r} are not adjacent")
        if merged_name is None:
            merged_name = ("contracted", u, v)
        if merged_name in self.vertices and merged_name not in (u, v):
            raise ValueError(f"merged vertex name {merged_name!r} already in use")
        new_edges = []
        for edge in self.edges:
            if edge == frozenset({u, v}):
                continue
            replaced = frozenset(merged_name if w in (u, v) else w for w in edge)
            if len(replaced) == 2:
                new_edges.append(replaced)
        new_vertices = (self.vertices - {u, v}) | {merged_name}
        return Graph(new_vertices, new_edges)

    def delete_graph_vertex(self, v: Vertex) -> "Graph":
        """Delete a vertex and all edges incident to it."""
        new_edges = [e for e in self.edges if v not in e]
        return Graph(self.vertices - {v}, new_edges)

    def delete_graph_edge(self, u: Vertex, v: Vertex) -> "Graph":
        if not self.has_edge(u, v):
            raise ValueError(f"{u!r} and {v!r} are not adjacent")
        return Graph(self.vertices, self.edges - {frozenset({u, v})})

    def to_hypergraph(self) -> Hypergraph:
        """Forget the 2-uniformity constraint (identity on data)."""
        return Hypergraph(self.vertices, self.edges)


def as_graph(hypergraph: Hypergraph) -> Graph:
    """View a 2-uniform hypergraph as a :class:`Graph`.

    Raises ``ValueError`` if some edge does not have exactly two vertices.
    """
    return Graph(hypergraph.vertices, hypergraph.edges)


# ----------------------------------------------------------------------
# Standard families
# ----------------------------------------------------------------------
def path_graph(n: int) -> Graph:
    """The path on ``n`` vertices ``0, ..., n-1``."""
    if n < 1:
        raise ValueError("path_graph requires n >= 1")
    return Graph(range(n), [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    """The cycle on ``n >= 3`` vertices."""
    if n < 3:
        raise ValueError("cycle_graph requires n >= 3")
    return Graph(range(n), [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> Graph:
    """The clique ``K_n``."""
    if n < 1:
        raise ValueError("complete_graph requires n >= 1")
    return Graph(range(n), [(i, j) for i in range(n) for j in range(i + 1, n)])


def star_graph(n: int) -> Graph:
    """The star with centre ``0`` and ``n`` leaves ``1..n``."""
    if n < 1:
        raise ValueError("star_graph requires n >= 1")
    return Graph(range(n + 1), [(0, i) for i in range(1, n + 1)])


def grid_graph(rows: int, cols: int) -> Graph:
    """The ``rows x cols`` grid graph with vertices ``(i, j)``.

    The ``n x n`` grid is the canonical highly connected planar graph of the
    Excluded Grid Theorem (Proposition 4.5); its hypergraph dual is the
    ``n x n`` jigsaw (Definition 4.2).
    """
    if rows < 1 or cols < 1:
        raise ValueError("grid_graph requires positive dimensions")
    vertices = [(i, j) for i in range(rows) for j in range(cols)]
    edges = []
    for i in range(rows):
        for j in range(cols):
            if i + 1 < rows:
                edges.append(((i, j), (i + 1, j)))
            if j + 1 < cols:
                edges.append(((i, j), (i, j + 1)))
    return Graph(vertices, edges)
