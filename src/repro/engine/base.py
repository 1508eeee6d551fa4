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
:meth:`CoreMaintainer.apply_batch`, which applies it one of two ways:

* **maintain** (:meth:`CoreMaintainer.maintain_batch`, the one run
  loop): replay the batch as same-kind runs dispatched to the
  :meth:`_insert_run` / :meth:`_remove_run` hooks.  The base hooks apply
  the run one edge at a time (what ``trav-<h>`` uses); the order family
  overrides both with coalesced commits (one ``mcd`` repair per
  insertion run, one joint cascade per removal run);
* **rebuild** (:meth:`CoreMaintainer.rebuild_batch`): apply the batch
  to the graph, recompute the core numbers once from it
  (:meth:`_build_index`), and report the net old-against-new core diff.
  For ``naive`` and ``trav-<h>`` that is the constructor's whole build.
  The order family runs only its peel and keeps the peel's order; the
  first later path that reads or changes its k-order builds ``deg+``,
  the k-order and ``mcd`` from it, so a run of rebuilt batches never
  builds them.  From a run's second rebuilt batch on it also keeps the
  peel's vertex ids and peels them again (:meth:`_land`); every other
  update drops them (:meth:`_materialize`).

One count-based rule picks between them: rebuild when
``REBUILD_FACTOR * ops * v >= |V| + |E|``, where ``v`` is the engine's
running ``visited`` per op over the batches it maintained (1 before the
first).  The paper's regime — one update at a time on a large graph — is
far below the threshold, and the per-edge API (:meth:`insert_edge` /
:meth:`remove_edge`) never consults it.  ``naive`` is the rule's
"always rebuild" case.

Engines are created by name through the registry in
:mod:`repro.engine.registry` (:func:`~repro.engine.registry.make_engine`).
"""

from __future__ import annotations

import time
from abc import ABC, abstractmethod
from typing import Hashable, Mapping, NamedTuple, Optional

from repro.engine.batch import (
    INSERT,
    Batch,
    BatchResult,
    RemovalRunResult,
    core_diff,
    merge_deltas,
    net_changes,
)
from repro.graphs.undirected import DynamicGraph
from repro.testing.faults import inject

Vertex = Hashable
Edge = tuple[Vertex, Vertex]

#: ``C`` of the rebuild rule: a batch rebuilds the index when
#: ``C * ops * visited-per-op >= |V| + |E|``.  Taken from the crossovers
#: of ``benchmarks/bench_rebuild_sweep.py`` (``BENCH_rebuild_sweep.json``).
REBUILD_FACTOR = 10


class UpdateResult(NamedTuple):
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
    changed: tuple = ()
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

    #: Index builds from the graph after construction (rebuilt batches,
    #: and every update of the naive engine).
    rebuilds = 0

    #: Run the engine's invariant audit (``check``) after each update,
    #: each maintained run and each rebuild; engines with an audit set it.
    _audit = False

    def __init__(self, graph: DynamicGraph) -> None:
        self._graph = graph
        #: Core numbers.  Rebuilds refill this dict in place, so a live
        #: view of :attr:`core` never goes stale.
        self._core: dict[Vertex, int] = {}
        #: Ops and ``visited`` summed over the maintained batches: the
        #: rebuild rule's visited-per-op estimate.
        self._maintained_ops = 0
        self._maintained_visited = 0

    # ------------------------------------------------------------------
    # Read-only accessors
    # ------------------------------------------------------------------

    @property
    def graph(self) -> DynamicGraph:
        """The underlying graph (mutate only through the engine)."""
        return self._graph

    @property
    def core(self) -> Mapping[Vertex, int]:
        """Current core numbers; treat as read-only.  The same mapping
        for the engine's whole life, updated in place."""
        return self._core

    def core_of(self, vertex: Vertex) -> int:
        """Core number of one vertex."""
        return self.core[vertex]

    def core_numbers(self) -> dict[Vertex, int]:
        """A snapshot copy of all core numbers."""
        return dict(self.core)

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
        # Build a deferred index while the graph still holds the vertex.
        self._materialize()
        results = [
            self.remove_edge(vertex, w)
            for w in list(self._graph.neighbors(vertex))
        ]
        self._graph.remove_vertex(vertex)
        self._forget_vertex(vertex)
        return results

    # ------------------------------------------------------------------
    # Batch pipeline
    # ------------------------------------------------------------------

    def apply_batch(self, batch: Batch) -> BatchResult:
        """Apply a mixed :class:`~repro.engine.batch.Batch` of updates,
        by :meth:`rebuild_batch` when :meth:`_rebuild_pays` says the
        batch is large against the graph, by :meth:`maintain_batch`
        otherwise.  Either way the final graph and core numbers are those
        of op-order replay, and ``changed`` is the batch's net delta."""
        if self._rebuild_pays(len(batch)):
            return self.rebuild_batch(batch)
        return self.maintain_batch(batch)

    def _rebuild_pays(self, ops: int) -> bool:
        """The rebuild rule: ``C * ops * v >= |V| + |E|``.

        ``v`` is ``visited`` per op over the batches this engine
        maintained, and 1 before the first, so a first batch rebuilds
        when it holds at least ``1/C`` of the graph.  Counts only, never
        a clock: which batches rebuild is fixed by the inputs.
        """
        if not ops:
            return False
        size = self._graph.n + self._graph.m
        if not self._maintained_ops:
            return REBUILD_FACTOR * ops >= size
        return (
            REBUILD_FACTOR * ops * self._maintained_visited
            >= size * self._maintained_ops
        )

    def maintain_batch(self, batch: Batch) -> BatchResult:
        """Apply a batch through the engine's incremental run loop.

        The batch replays as same-kind runs (:meth:`Batch.runs`): a
        conflict-free batch becomes one removal run followed by one
        insertion run, a conflicting one keeps its op order.  Insertion
        runs go through :meth:`_insert_run` (one
        :class:`UpdateResult` per op), removal runs through
        :meth:`_remove_run` (one
        :class:`~repro.engine.batch.RemovalRunResult` per run).

        ``BatchResult.results`` keeps per-op detail only for batches
        without removals, in the batch's op order; a removal run is
        aggregated at run level, so any batch that removes reports
        ``results=None`` (``changed``/``visited`` stay exact).
        """
        started = time.perf_counter()
        baseline = self._batch_counters()
        self._materialize()
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
        self._maintained_ops += inserts + removes
        self._maintained_visited += visited
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

    def rebuild_batch(self, batch: Batch) -> BatchResult:
        """Apply a batch to the graph, then rebuild the index once
        (:meth:`_build_index`: the core numbers, and whatever else of
        the index the engine does not defer to :meth:`_materialize`).

        The graph takes the batch as :meth:`maintain_batch` would
        (:meth:`_land`), so both paths land the same ops when one
        raises.  The index is rebuilt even then, so the ops that
        landed leave it consistent with the graph.  ``changed`` is the
        net old-against-new core diff, ``results`` is ``None`` and
        ``visited`` is ``|V|``.
        """
        started = time.perf_counter()
        baseline = self._batch_counters()
        try:
            self._land(batch)
        finally:
            changed = self._rebuild()
        inserts, removes = batch.counts()
        return BatchResult(
            engine=self.name,
            inserts=inserts,
            removes=removes,
            changed=changed,
            visited=self._graph.n,
            seconds=time.perf_counter() - started,
            results=None,
            counters=self._counter_deltas(baseline),
        )

    def _land(self, batch: Batch) -> None:
        """Apply ``batch`` to the graph for :meth:`rebuild_batch`: its
        runs in the order :meth:`maintain_batch` takes them, with the
        same ``engine.mid_batch`` fault point before each."""
        graph = self._graph
        for kind, run_edges in batch.runs():
            inject("engine.mid_batch")
            update = graph.add_edge if kind == INSERT else graph.remove_edge
            for u, v in run_edges:
                update(u, v)

    def _rebuild(self) -> dict[Vertex, int]:
        """Rebuild the index from the graph, counting it in
        :attr:`rebuilds` and auditing it when the engine audits (the
        audit builds any deferred part first, so it covers the whole
        index); returns the net core delta, :meth:`_rebuild_diff`'s or
        the core map's before :meth:`_build_index` against after."""
        changed = self._rebuild_diff()
        if changed is None:
            old = dict(self._core)
            self._build_index()
            changed = core_diff(old, self._core)
        self.rebuilds += 1
        if self._audit:
            self.check()
        return changed

    def _rebuild_diff(self) -> Optional[dict[Vertex, int]]:
        """Rebuild the index and return the net core delta without a copy
        of the core map, or return ``None`` having rebuilt nothing."""
        return None

    @abstractmethod
    def _build_index(self) -> None:
        """Build from the graph what a rebuild needs: the core numbers,
        and the rest of the index or what :meth:`_materialize` builds it
        from.

        Updates :attr:`_core` in place (``self._core.update``: the graph
        holds every vertex the map does, and a vertex keeps its place in
        the iteration order) and keeps every cumulative counter, so a
        rebuild never moves one back.
        """

    def _materialize(self) -> None:
        """Ready the index for an update other than a rebuilt batch:
        build the part of it :meth:`_build_index` deferred, and drop what
        the engine kept only for the next rebuilt batch.  A no-op unless
        the engine defers or keeps (the order family defers its k-order
        and ``mcd`` to the first update after a rebuild, and keeps the
        peel's vertex ids between rebuilt batches)."""

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
        """Cumulative instrumentation counters; engines extend it.

        The base reports :attr:`rebuilds`; the order engine adds its
        k-order stats (``order_queries``, ``relabels``) plus
        ``mcd_recomputations``.
        """
        return {"rebuilds": self.rebuilds}

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
