"""The ``mcd`` / ``pcd`` residential-degree hierarchy (Section IV).

Definitions (for a vertex ``u``; ``r_j`` generalizes to ``h`` hops as in
the VLDBJ'16 enhancement the paper benchmarks as ``Trav-h``):

* ``r_1(u) = mcd(u)`` — neighbors ``w`` with ``core(w) >= core(u)``;
* ``r_j(u)`` for ``j >= 2`` — neighbors ``w`` with ``core(w) > core(u)``,
  or ``core(w) == core(u)`` and ``r_{j-1}(w) > core(w)``.

``r_2`` is exactly ``pcd``.  ``r_j`` aggregates information from ``j`` hops
away, so it prunes the insertion DFS harder — but a core-number change at
one vertex can invalidate ``r_j`` values up to ``j`` hops out, which is why
index maintenance dominates the traversal algorithm's cost (the deficiency
the order-based approach removes).

:meth:`DegreeHierarchy.refresh` performs exactly that hop-expanding delta
maintenance: level ``j`` is recomputed for the vertices adjacent to any
vertex whose core or level-``j-1`` value changed.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Mapping

from repro.core.decomposition import compute_mcd
from repro.graphs.undirected import DynamicGraph

Vertex = Hashable


def compute_next_level(
    graph: DynamicGraph,
    core: Mapping[Vertex, int],
    previous: Mapping[Vertex, int],
) -> dict[Vertex, int]:
    """``r_j`` for every vertex, given ``r_{j-1}`` in ``previous``."""
    out: dict[Vertex, int] = {}
    for v, nbrs in graph.adj.items():
        cv = core[v]
        count = 0
        for w in nbrs:
            cw = core[w]
            if cw > cv or (cw == cv and previous[w] > cw):
                count += 1
        out[v] = count
    return out


class DegreeHierarchy:
    """Maintained levels ``r_1 .. r_h`` for a ``Trav-h`` engine."""

    def __init__(
        self, graph: DynamicGraph, core: Mapping[Vertex, int], depth: int
    ) -> None:
        if depth < 1:
            raise ValueError("hierarchy depth must be at least 1 (mcd)")
        self._graph = graph
        self._depth = depth
        self.levels: list[dict[Vertex, int]] = [compute_mcd(graph, core)]
        for _ in range(1, depth):
            self.levels.append(compute_next_level(graph, core, self.levels[-1]))

    @property
    def depth(self) -> int:
        """Number of maintained levels (``h`` for a Trav-h engine)."""
        return self._depth

    @property
    def mcd(self) -> dict[Vertex, int]:
        """``r_1``."""
        return self.levels[0]

    @property
    def top(self) -> dict[Vertex, int]:
        """``r_h`` — the value that seeds ``cd`` in the insertion DFS."""
        return self.levels[-1]

    def prune_level(self) -> dict[Vertex, int]:
        """``r_{h-1}`` — the DFS visit filter (``mcd`` when ``h == 2``)."""
        return self.levels[-2] if self._depth >= 2 else self.levels[-1]

    # ------------------------------------------------------------------

    def register_vertex(self, vertex: Vertex) -> None:
        """Initialize an isolated vertex at every level."""
        for level in self.levels:
            level[vertex] = 0

    def forget_vertex(self, vertex: Vertex) -> None:
        """Drop a vertex that left the graph."""
        for level in self.levels:
            level.pop(vertex, None)

    def recompute_value(
        self, core: Mapping[Vertex, int], j: int, vertex: Vertex
    ) -> int:
        """Fresh ``r_{j+1}`` (``levels[j]``) value for one vertex."""
        cv = core[vertex]
        nbrs = self._graph.adj[vertex]
        if j == 0:
            return sum(1 for w in nbrs if core[w] >= cv)
        previous = self.levels[j - 1]
        count = 0
        for w in nbrs:
            cw = core[w]
            if cw > cv or (cw == cv and previous[w] > cw):
                count += 1
        return count

    def refresh(
        self,
        core: Mapping[Vertex, int],
        changed_core: Iterable[Vertex],
        endpoints: Iterable[Vertex] = (),
    ) -> int:
        """Delta-repair every level after an update.

        ``changed_core`` are the vertices whose core number changed
        (``V*``); ``endpoints`` the edge's endpoints (their adjacency
        changed).  Level ``j`` must be recomputed for the endpoints, for
        ``V*``, and for every vertex adjacent to a vertex whose core or
        ``r_{j-1}`` changed.  Returns the number of value recomputations —
        the quantity that blows up with ``h`` and with ``|nbr(V*)|``,
        reproducing the maintenance cost the paper measures.
        """
        graph = self._graph
        changed_set = {v for v in changed_core if v in graph.adj}
        endpoint_set = {v for v in endpoints if v in graph.adj}
        work = 0
        # Vertices whose level-(j-1) value changed during the previous pass;
        # core changes matter at every level.
        previous_changed: set[Vertex] = set()
        for j in range(self._depth):
            candidates = set(endpoint_set)
            candidates.update(changed_set)
            for w in changed_set:
                candidates.update(graph.adj[w])
            for w in previous_changed:
                candidates.update(graph.adj[w])
            level = self.levels[j]
            now_changed: set[Vertex] = set()
            for x in candidates:
                fresh = self.recompute_value(core, j, x)
                work += 1
                if level.get(x) != fresh:
                    level[x] = fresh
                    now_changed.add(x)
            previous_changed = now_changed
        return work

    def check(self, core: Mapping[Vertex, int]) -> None:
        """Audit all levels against from-scratch recomputation."""
        expected = compute_mcd(self._graph, core)
        for j in range(self._depth):
            if j > 0:
                expected = compute_next_level(self._graph, core, self.levels[j - 1])
            if expected != self.levels[j]:
                bad = {
                    v: (self.levels[j].get(v), expected[v])
                    for v in expected
                    if self.levels[j].get(v) != expected[v]
                }
                raise AssertionError(f"hierarchy level r_{j + 1} stale: {bad}")
