"""Shared interface for every core-maintenance engine.

Four engines implement it:

* :class:`repro.core.maintainer.OrderedCoreMaintainer` — the paper's
  order-based algorithm;
* :class:`repro.core.simplified.SimplifiedCoreMaintainer` — the same
  index and kernel with Guo & Sekerinski's ``mcd`` upkeep (the default);
* :class:`repro.traversal.maintainer.TraversalCoreMaintainer` — the
  state-of-the-art baseline (Sariyüce et al.), parameterized by hop count;
* :class:`repro.naive.maintainer.NaiveCoreMaintainer` — recompute from
  scratch (test oracle / lower bound).

All engines take ownership of the graph passed to them: updates must go
through the engine so its index stays consistent with the graph.

Besides the per-edge updates the paper describes, every engine accepts a
:class:`~repro.engine.batch.Batch` of mixed insertions/removals through
:meth:`CoreMaintainer.apply_batch`, the one batch loop: it replays the
batch as same-kind runs and dispatches them to the :meth:`_insert_run` /
:meth:`_remove_run` hooks.  The base hooks apply the run one edge at a
time (what ``trav-<h>`` uses); the order family overrides both with
coalesced commits (one ``mcd`` repair per insertion run, one joint
cascade per removal run), and the naive engine replaces
:meth:`~CoreMaintainer.apply_batch` itself to recompute once per batch.

Engines are created by name through the registry in
:mod:`repro.engine.registry` (:func:`~repro.engine.registry.make_engine`).
"""

from __future__ import annotations

import time
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Hashable, Iterable, Mapping, Optional

from repro.engine.batch import (
    INSERT,
    Batch,
    BatchResult,
    RemovalRunResult,
    merge_deltas,
    net_changes,
)
from repro.graphs.undirected import DynamicGraph
from repro.testing.faults import inject

Vertex = Hashable
Edge = tuple[Vertex, Vertex]


@dataclass(frozen=True)
class UpdateResult:
    """Outcome of one edge update.

    Attributes
    ----------
    kind:
        ``"insert"`` or ``"remove"``.
    edge:
        The edge as passed by the caller (batch paths normalize it to
        the batch's canonical orientation).
    k:
        ``K = min(core(u), core(v))`` at update time — the block the update
        happened in (Fig. 10b plots the distribution of this value).
    changed:
        ``V*``: the vertices whose core number changed (by exactly 1, per
        Theorem 3.1).
    visited:
        Size of the search space: ``|V+|`` for the order-based engine,
        ``|V'|`` for the traversal engine (what Figs. 1-2 measure).
    evicted:
        Insertions only: number of vertices that became candidates but
        were later disproven (Algorithm 3's cascade for the order engine,
        eviction propagation for the traversal engine).
    """

    kind: str
    edge: Edge
    k: int
    changed: tuple = field(default=())
    visited: int = 0
    evicted: int = 0

    @property
    def delta(self) -> int:
        """Core-number delta applied to every vertex in ``changed``."""
        return 1 if self.kind == "insert" else -1


class CoreMaintainer(ABC):
    """Abstract core-maintenance engine."""

    #: Human-readable engine name, overridden by subclasses.
    name = "abstract"

    def __init__(self, graph: DynamicGraph) -> None:
        self._graph = graph

    # ------------------------------------------------------------------
    # Read-only accessors
    # ------------------------------------------------------------------

    @property
    def graph(self) -> DynamicGraph:
        """The underlying graph (mutate only through the engine)."""
        return self._graph

    @property
    @abstractmethod
    def core(self) -> Mapping[Vertex, int]:
        """Current core numbers; treat as read-only."""

    def core_of(self, vertex: Vertex) -> int:
        """Core number of one vertex."""
        return self.core[vertex]

    def core_numbers(self) -> dict[Vertex, int]:
        """A snapshot copy of all core numbers."""
        return dict(self.core)

    def k_core(self, k: int) -> set[Vertex]:
        """Vertex set of the ``k``-core (``core(v) >= k``)."""
        return {v for v, c in self.core.items() if c >= k}

    def k_shell(self, k: int) -> set[Vertex]:
        """Vertices with core number exactly ``k``."""
        return {v for v, c in self.core.items() if c == k}

    def degeneracy(self) -> int:
        """The largest ``k`` with a non-empty ``k``-core (max core number)."""
        return max(self.core.values(), default=0)

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------

    @abstractmethod
    def insert_edge(self, u: Vertex, v: Vertex) -> UpdateResult:
        """Insert edge ``(u, v)`` and repair all core numbers."""

    @abstractmethod
    def remove_edge(self, u: Vertex, v: Vertex) -> UpdateResult:
        """Remove edge ``(u, v)`` and repair all core numbers."""

    @abstractmethod
    def add_vertex(self, vertex: Vertex) -> bool:
        """Register an isolated vertex; returns ``False`` if present."""

    def remove_vertex(self, vertex: Vertex) -> list[UpdateResult]:
        """Remove a vertex as a sequence of edge removals (Section I).

        The paper treats vertex updates as edge-update sequences; engines
        inherit that behaviour.  Returns one result per removed edge.
        """
        results = [
            self.remove_edge(vertex, w)
            for w in list(self._graph.neighbors(vertex))
        ]
        self._graph.remove_vertex(vertex)
        self._forget_vertex(vertex)
        return results

    def insert_edges(self, edges: Iterable[Edge]) -> list[UpdateResult]:
        """Insert several edges one by one."""
        return [self.insert_edge(u, v) for u, v in edges]

    def remove_edges(self, edges: Iterable[Edge]) -> list[UpdateResult]:
        """Remove several edges one by one."""
        return [self.remove_edge(u, v) for u, v in edges]

    # ------------------------------------------------------------------
    # Batch pipeline
    # ------------------------------------------------------------------

    def apply_batch(self, batch: Batch) -> BatchResult:
        """Apply a mixed :class:`~repro.engine.batch.Batch` of updates.

        The batch replays as same-kind runs (:meth:`Batch.runs`): a
        conflict-free batch becomes one removal run followed by one
        insertion run, a conflicting one keeps its op order.  Insertion
        runs go through :meth:`_insert_run` (one
        :class:`UpdateResult` per op), removal runs through
        :meth:`_remove_run` (one
        :class:`~repro.engine.batch.RemovalRunResult` per run).  The final
        graph and core numbers are those of op-order replay.

        ``BatchResult.results`` keeps per-op detail only for batches
        without removals, in the batch's op order; a removal run is
        aggregated at run level, so any batch that removes reports
        ``results=None`` (``changed``/``visited`` stay exact).
        """
        started = time.perf_counter()
        baseline = self._batch_counters()
        results: list[UpdateResult] = []
        removal_runs: list[RemovalRunResult] = []
        inserts = removes = 0
        for kind, run_edges in batch.runs():
            inject("engine.mid_batch")
            if kind == INSERT:
                results.extend(self._insert_run(run_edges))
                inserts += len(run_edges)
            else:
                removal_runs.append(self._remove_run(run_edges))
                removes += len(run_edges)
        visited = sum(r.visited for r in results)
        changed = net_changes(results)
        for run in removal_runs:
            visited += run.visited
            merge_deltas(changed, run.changed.items())
        return BatchResult(
            engine=self.name,
            inserts=inserts,
            removes=removes,
            changed=changed,
            visited=visited,
            seconds=time.perf_counter() - started,
            results=None if removal_runs else results,
            counters=self._counter_deltas(baseline),
        )

    def _insert_run(self, edges: list[Edge]) -> list[UpdateResult]:
        """Insert a run of edges; returns one result per op.

        The default applies :meth:`insert_edge` per edge; engines with a
        coalesced insertion commit override it.
        """
        return [self.insert_edge(u, v) for u, v in edges]

    def _remove_run(self, edges: list[Edge]) -> RemovalRunResult:
        """Remove a run of edges; returns one aggregate run result.

        The default applies :meth:`remove_edge` per edge; the order
        family overrides it with the batch-native joint cascade
        (:func:`repro.core.removal.order_remove_run`).
        """
        results = [self.remove_edge(u, v) for u, v in edges]
        return RemovalRunResult(
            removed=len(results),
            changed=net_changes(results),
            visited=sum(r.visited for r in results),
        )

    def _batch_counters(self) -> dict[str, int]:
        """Cumulative instrumentation counters; engines override.

        The order engine reports its k-order stats (``order_queries``,
        ``relabels``) plus ``mcd_recomputations``; the default is no
        counters.
        """
        return {}

    def _counter_deltas(self, baseline: Optional[dict]) -> dict:
        """Current :meth:`_batch_counters` as per-batch deltas.

        ``baseline`` is a counter snapshot taken when the batch started.

        Counters the engine never touched are omitted, not zero-filled:
        :meth:`_batch_counters` values are cumulative and monotonic, so
        a cumulative 0 means the counter's machinery never ran at all
        (no ``relabels`` before the first OM-list relabeling, no
        ``mcd_recomputations`` on an engine with no ``mcd`` concept) —
        reporting ``0`` would misread as "ran and did nothing".  A
        counter that has ever moved stays reported, even when this
        batch's delta is 0.
        """
        counters = self._batch_counters()
        if baseline:
            return {
                key: value - baseline.get(key, 0)
                for key, value in counters.items()
                if value
            }
        return {key: value for key, value in counters.items() if value}

    # ------------------------------------------------------------------
    # Hooks
    # ------------------------------------------------------------------

    @abstractmethod
    def _forget_vertex(self, vertex: Vertex) -> None:
        """Drop per-vertex index state after the vertex left the graph."""
