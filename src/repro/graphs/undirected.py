"""A dynamic, simple, undirected graph.

This is the substrate every maintenance engine operates on: adjacency sets
with O(1) expected edge insertion/removal/lookup, no parallel edges, no
self-loops (k-core semantics are defined on simple graphs; a self-loop
contributes 2 to a vertex's degree in most conventions and breaks the
peeling invariants, so we reject them outright).

Vertices may be any hashable object; the bundled datasets use integers.

Hot paths in the algorithms read :attr:`DynamicGraph.adj` directly — a
``dict`` mapping each vertex to its neighbor ``set``.  Callers must treat it
as read-only; all mutation goes through the methods so that edge counts stay
consistent.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Iterator

from repro.errors import (
    EdgeExistsError,
    EdgeNotFoundError,
    SelfLoopError,
    VertexNotFoundError,
)

Vertex = Hashable
Edge = tuple[Vertex, Vertex]


class DynamicGraph:
    """Simple undirected graph under edge/vertex insertions and removals."""

    __slots__ = ("_adj", "_m")

    def __init__(
        self,
        edges: Iterable[Edge] = (),
        vertices: Iterable[Vertex] = (),
    ) -> None:
        self._adj: dict[Vertex, set[Vertex]] = {}
        self._m = 0
        for v in vertices:
            self.add_vertex(v)
        for u, v in edges:
            self.add_edge(u, v)

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

    @classmethod
    def from_edges(cls, edges: Iterable[Edge]) -> "DynamicGraph":
        """Build a graph from an edge iterable (duplicates rejected)."""
        return cls(edges=edges)

    def copy(self) -> "DynamicGraph":
        """An independent deep copy of the adjacency structure."""
        clone = DynamicGraph()
        clone._adj = {v: set(nbrs) for v, nbrs in self._adj.items()}
        clone._m = self._m
        return clone

    def subgraph(self, vertices: Iterable[Vertex]) -> "DynamicGraph":
        """The subgraph induced by ``vertices`` (unknown vertices ignored)."""
        keep = {v for v in vertices if v in self._adj}
        sub = DynamicGraph(vertices=keep)
        for u in keep:
            for v in self._adj[u]:
                if v in keep and not sub.has_edge(u, v):
                    sub.add_edge(u, v)
        return sub

    # ------------------------------------------------------------------
    # Size / membership
    # ------------------------------------------------------------------

    @property
    def n(self) -> int:
        """Number of vertices."""
        return len(self._adj)

    @property
    def m(self) -> int:
        """Number of edges."""
        return self._m

    @property
    def adj(self) -> dict[Vertex, set[Vertex]]:
        """The adjacency map.  **Read-only** for callers."""
        return self._adj

    def __len__(self) -> int:
        return len(self._adj)

    def __contains__(self, vertex: Vertex) -> bool:
        return vertex in self._adj

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DynamicGraph(n={self.n}, m={self.m})"

    def has_vertex(self, vertex: Vertex) -> bool:
        """Whether ``vertex`` is in the graph."""
        return vertex in self._adj

    def has_edge(self, u: Vertex, v: Vertex) -> bool:
        """Whether edge ``(u, v)`` is in the graph."""
        nbrs = self._adj.get(u)
        return nbrs is not None and v in nbrs

    def degree(self, vertex: Vertex) -> int:
        """Degree of ``vertex``.  Raises :class:`VertexNotFoundError`."""
        try:
            return len(self._adj[vertex])
        except KeyError:
            raise VertexNotFoundError(vertex) from None

    def neighbors(self, vertex: Vertex) -> Iterator[Vertex]:
        """Iterator over the neighbors of ``vertex``."""
        try:
            return iter(self._adj[vertex])
        except KeyError:
            raise VertexNotFoundError(vertex) from None

    def vertices(self) -> Iterator[Vertex]:
        """Iterator over all vertices."""
        return iter(self._adj)

    def edges(self) -> Iterator[Edge]:
        """Iterator over all edges, each reported once."""
        seen: set[Vertex] = set()
        for u, nbrs in self._adj.items():
            for v in nbrs:
                if v not in seen:
                    yield (u, v)
            seen.add(u)

    def average_degree(self) -> float:
        """``2m / n`` (0.0 for an empty graph)."""
        return (2.0 * self._m / self.n) if self.n else 0.0

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------

    def add_vertex(self, vertex: Vertex) -> bool:
        """Add an isolated vertex; returns ``False`` if already present."""
        if vertex in self._adj:
            return False
        self._adj[vertex] = set()
        return True

    def remove_vertex(self, vertex: Vertex) -> list[Edge]:
        """Remove ``vertex`` and all incident edges.

        Returns the list of removed edges (useful for engines that simulate
        vertex removal as a sequence of edge removals).
        """
        try:
            nbrs = self._adj.pop(vertex)
        except KeyError:
            raise VertexNotFoundError(vertex) from None
        removed = []
        for w in nbrs:
            self._adj[w].discard(vertex)
            removed.append((vertex, w))
        self._m -= len(removed)
        return removed

    def add_edge(self, u: Vertex, v: Vertex) -> None:
        """Insert edge ``(u, v)``, creating missing endpoints.

        Raises :class:`SelfLoopError` for ``u == v`` and
        :class:`EdgeExistsError` for duplicates.
        """
        if u == v:
            raise SelfLoopError(u)
        adj = self._adj
        nbrs_u = adj.get(u)
        if nbrs_u is None:
            nbrs_u = adj[u] = set()
        elif v in nbrs_u:
            raise EdgeExistsError(u, v)
        nbrs_v = adj.get(v)
        if nbrs_v is None:
            nbrs_v = adj[v] = set()
        nbrs_u.add(v)
        nbrs_v.add(u)
        self._m += 1

    def remove_edge(self, u: Vertex, v: Vertex) -> None:
        """Remove edge ``(u, v)``.  Raises :class:`EdgeNotFoundError`."""
        nbrs_u = self._adj.get(u)
        if nbrs_u is None or v not in nbrs_u:
            raise EdgeNotFoundError(u, v)
        nbrs_u.discard(v)
        self._adj[v].discard(u)
        self._m -= 1
