"""Core "maintenance" by full recomputation.

Runs ``CoreDecomp`` after every update — ``O(m + n)`` per edge, which is
exactly the cost the maintenance algorithms exist to avoid.  It serves two
purposes here:

* the correctness oracle for the test-suite (every other engine must agree
  with it after every update);
* the from-scratch baseline the paper's introduction argues against.

Its :meth:`~NaiveCoreMaintainer.apply_batch` is the one place recomputation
is genuinely competitive: all of a batch's mutations are applied first and
``CoreDecomp`` runs **once per batch** instead of once per edge, which also
makes it a cheap oracle for whole-batch agreement tests.
"""

from __future__ import annotations

import time
from typing import Hashable, Mapping

from repro.core.decomposition import core_numbers
from repro.engine.base import CoreMaintainer, UpdateResult
from repro.engine.batch import Batch, BatchResult
from repro.graphs.undirected import DynamicGraph

Vertex = Hashable


class NaiveCoreMaintainer(CoreMaintainer):
    """Recompute all core numbers from scratch after each update."""

    name = "naive"

    def __init__(self, graph: DynamicGraph) -> None:
        super().__init__(graph)
        self._core: dict[Vertex, int] = core_numbers(graph)
        #: Full ``CoreDecomp`` passes since construction (one per update,
        #: one per batch through :meth:`apply_batch`).
        self.recomputations = 0

    @property
    def core(self) -> Mapping[Vertex, int]:
        return self._core

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

    def apply_batch(self, batch: Batch) -> BatchResult:
        """Apply all mutations, then run ``CoreDecomp`` once.

        One ``O(m + n)`` pass per *batch* instead of per edge makes the
        naive engine a practical oracle for batched workloads.  Per-edge
        attribution is impossible under this schedule, so
        ``BatchResult.results`` is ``None``; ``changed`` carries the net
        core delta of every vertex over the whole batch.
        """
        started = time.perf_counter()
        graph = self._graph
        old_core = dict(self._core)
        try:
            batch.apply_to(graph)
        finally:
            # Recompute even when an op raises mid-batch: the mutations
            # that did land must not leave the core map out of sync.
            new_core = core_numbers(graph)
            self._core = new_core
            self.recomputations += 1
        changed = {
            v: new_core.get(v, 0) - old_core.get(v, 0)
            for v in old_core.keys() | new_core.keys()
            if new_core.get(v, 0) != old_core.get(v, 0)
        }
        inserts, removes = batch.counts()
        return BatchResult(
            engine=self.name,
            inserts=inserts,
            removes=removes,
            changed=changed,
            visited=graph.n,
            seconds=time.perf_counter() - started,
            results=None,
            counters={"recomputations": 1},
        )

    def _batch_counters(self) -> dict[str, int]:
        return {"recomputations": self.recomputations}

    def _recompute(self, kind: str, edge: tuple, k: int) -> UpdateResult:
        new_core = core_numbers(self._graph)
        self.recomputations += 1
        changed = tuple(
            v for v, c in new_core.items() if self._core.get(v) != c
        )
        self._core = new_core
        # The whole graph is "visited" by a recomputation.
        return UpdateResult(kind, edge, k, changed, self._graph.n)

    def _forget_vertex(self, vertex: Vertex) -> None:
        self._core.pop(vertex, None)
