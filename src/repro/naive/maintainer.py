"""Core "maintenance" by full recomputation.

Runs ``CoreDecomp`` after every update — ``O(m + n)`` per edge, which is
exactly the cost the maintenance algorithms exist to avoid.  It serves two
purposes here:

* the correctness oracle for the test-suite (every other engine must agree
  with it after every update);
* the from-scratch baseline the paper's introduction argues against.

Its index is the core map alone, so every update is a rebuild
(:meth:`~repro.engine.base.CoreMaintainer._rebuild`, counted in
``rebuilds``).  In batches it is the rebuild rule's "always rebuild"
case: :meth:`~repro.engine.base.CoreMaintainer.apply_batch` always takes
:meth:`~repro.engine.base.CoreMaintainer.rebuild_batch`, which applies
all of a batch's mutations first and runs ``CoreDecomp`` **once per
batch** — the one place recomputation is genuinely competitive, and a
cheap oracle for whole-batch agreement tests.
"""

from __future__ import annotations

from typing import Hashable

from repro.core.decomposition import core_numbers
from repro.engine.base import CoreMaintainer, UpdateResult
from repro.graphs.undirected import DynamicGraph

Vertex = Hashable


class NaiveCoreMaintainer(CoreMaintainer):
    """Recompute all core numbers from scratch after each update."""

    name = "naive"

    def __init__(self, graph: DynamicGraph) -> None:
        super().__init__(graph)
        self._build_index()

    def _build_index(self) -> None:
        self._core.update(core_numbers(self._graph))

    def _rebuild_pays(self, ops: int) -> bool:
        return True

    def add_vertex(self, vertex: Vertex) -> bool:
        if not self._graph.add_vertex(vertex):
            return False
        self._core[vertex] = 0
        return True

    def insert_edge(self, u: Vertex, v: Vertex) -> UpdateResult:
        self._graph.add_vertex(u)
        self._graph.add_vertex(v)
        k = min(self._core.get(u, 0), self._core.get(v, 0))
        self._graph.add_edge(u, v)
        return self._recompute("insert", (u, v), k)

    def remove_edge(self, u: Vertex, v: Vertex) -> UpdateResult:
        # Validates first; removing the edge does not change core.
        self._graph.remove_edge(u, v)
        k = min(self._core[u], self._core[v])
        return self._recompute("remove", (u, v), k)

    def _recompute(self, kind: str, edge: tuple, k: int) -> UpdateResult:
        changed = tuple(self._rebuild())
        # The whole graph is "visited" by a recomputation.
        return UpdateResult(kind, edge, k, changed, self._graph.n)

    def _forget_vertex(self, vertex: Vertex) -> None:
        self._core.pop(vertex, None)
