"""The ``Trav-h`` maintenance engine (baseline).

Combines the DFS insertion search, the cascade removal search, and —
the dominant cost — maintenance of the ``h``-level residential-degree
hierarchy after every update.  ``h = 2`` is the classic PVLDB'13 traversal
algorithm (``mcd`` + ``pcd``); larger ``h`` prunes the insertion search
harder at a steeper index-maintenance price, exactly the trade-off in
Table II of the paper.
"""

from __future__ import annotations

from collections import ChainMap
from typing import Hashable, Mapping

from repro.core.decomposition import core_numbers
from repro.engine.base import CoreMaintainer, UpdateResult
from repro.graphs.undirected import DynamicGraph
from repro.traversal.degrees import DegreeHierarchy
from repro.traversal.insertion import traversal_insert_search
from repro.traversal.removal import traversal_remove_search

Vertex = Hashable


class TraversalCoreMaintainer(CoreMaintainer):
    """Sariyüce et al.'s traversal algorithm, parameterized by hop count.

    Parameters
    ----------
    graph:
        Graph to take ownership of.
    h:
        Hop count (>= 2).  The engine maintains ``r_1 .. r_h`` where
        ``r_1 = mcd`` and ``r_2 = pcd``; the insertion DFS prunes with
        ``r_{h-1}`` and seeds candidate degrees with ``r_h``.
    audit:
        When true, the hierarchy is audited after every update and every
        rebuilt batch (tests).
    """

    def __init__(self, graph: DynamicGraph, h: int = 2, audit: bool = False) -> None:
        if h < 2:
            raise ValueError("traversal algorithm needs h >= 2 (mcd + pcd)")
        super().__init__(graph)
        self.h = h
        self.name = f"trav-{h}"
        self._audit = audit
        #: Total hierarchy value recomputations — the maintenance cost.
        self.maintenance_work = 0
        self._build_index()

    def _build_index(self) -> None:
        """Decompose the graph, then compute ``r_1 .. r_h`` from scratch."""
        self._core.update(core_numbers(self._graph))
        self.hierarchy = DegreeHierarchy(self._graph, self._core, depth=self.h)

    @property
    def mcd(self) -> Mapping[Vertex, int]:
        return self.hierarchy.mcd

    @property
    def pcd(self) -> Mapping[Vertex, int]:
        """``r_2`` (only meaningful for ``h >= 2``, which is always)."""
        return self.hierarchy.levels[1]

    # ------------------------------------------------------------------

    def add_vertex(self, vertex: Vertex) -> bool:
        if not self._graph.add_vertex(vertex):
            return False
        self._core[vertex] = 0
        self.hierarchy.register_vertex(vertex)
        return True

    def insert_edge(self, u: Vertex, v: Vertex) -> UpdateResult:
        for endpoint in (u, v):
            self.add_vertex(endpoint)
        self._graph.add_edge(u, v)
        # Refresh the hierarchy for the new edge *before* searching: the
        # DFS relies on current mcd/pcd values (Section IV-A).
        self.maintenance_work += self.hierarchy.refresh(
            self._core, changed_core=(), endpoints=(u, v)
        )
        root = u if self._core[u] <= self._core[v] else v
        k = self._core[root]
        v_star, visited, evicted = traversal_insert_search(
            self._graph, self._core, self.hierarchy, root, k
        )
        for w in v_star:
            self._core[w] = k + 1
        self.maintenance_work += self.hierarchy.refresh(
            self._core, changed_core=v_star
        )
        if self._audit:
            self.check()
        return UpdateResult(
            "insert", (u, v), k, tuple(v_star), visited, evicted
        )

    def remove_edge(self, u: Vertex, v: Vertex) -> UpdateResult:
        # Validates first; removing the edge does not change core.
        self._graph.remove_edge(u, v)
        cu, cv = self._core[u], self._core[v]
        k = min(cu, cv)
        # The cascade needs post-removal mcd bounds for the endpoints, but
        # the hierarchy itself must keep its *old* values until refresh()
        # runs, otherwise the delta detection cannot see that they changed.
        stored = self.hierarchy.mcd
        patch: dict[Vertex, int] = {}
        if cu <= cv:
            patch[u] = stored[u] - 1
        if cv <= cu:
            patch[v] = stored[v] - 1
        mcd = ChainMap(patch, stored)
        if cu < cv:
            roots: tuple[Vertex, ...] = (u,)
        elif cv < cu:
            roots = (v,)
        else:
            roots = (u, v)
        v_star, visited = traversal_remove_search(
            self._graph, self._core, mcd, roots, k
        )
        self.maintenance_work += self.hierarchy.refresh(
            self._core, changed_core=v_star, endpoints=(u, v)
        )
        if self._audit:
            self.check()
        return UpdateResult("remove", (u, v), k, tuple(v_star), visited)

    # ------------------------------------------------------------------

    def _forget_vertex(self, vertex: Vertex) -> None:
        self._core.pop(vertex, None)
        self.hierarchy.forget_vertex(vertex)

    def check(self) -> None:
        """Audit the hierarchy (tests)."""
        self.hierarchy.check(self._core)
