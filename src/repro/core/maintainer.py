"""The order-based core-maintenance engines (the paper's contribution).

:class:`OrderFamilyMaintainer` holds the index both order-family engines
share — core numbers, the k-order with ``deg+``, and ``mcd`` — with its
accessors, vertex bookkeeping and audit,
and it owns the whole removal path: a per-edge ``OrderRemoval``
(Algorithm 4) is :func:`repro.core.removal.detach_edge` followed by one
:func:`repro.core.removal.demote_level` cascade seeded with the edge's
roots, and a removal run goes through
:func:`repro.core.removal.order_remove_run` (one joint cascade per
``K``-level).  Both keep ``mcd`` exact incrementally, so no repair pass
follows a removal.  Both engines commit batches through the run hooks
of :meth:`repro.engine.base.CoreMaintainer.apply_batch`, and a per-edge
insert is a one-edge insertion run; the engines differ only in that
insertion run and in the counter they charge.

:class:`OrderedCoreMaintainer`, the paper's engine, adds:

* the static k-order decomposition (Section VI generation heuristics);
* :func:`repro.core.insertion.order_insert` (Algorithms 2-3) with one
  coalesced boundary ``mcd`` repair per insertion run — the order-based
  algorithm still maintains max-core degrees because the removal
  cascade bounds ``cd`` with them (the paper's Algorithm 2 line 33 /
  Algorithm 4 line 15), but crucially it does *not* maintain ``pcd``,
  whose 2-hop upkeep dominates the traversal algorithm.

The k-order and ``mcd`` exist to make the *next* update cheap, so a
rebuilt batch (:meth:`~repro.engine.base.CoreMaintainer.rebuild_batch`)
runs only the peel: it refreshes the core numbers and keeps the peel's
order.  The first later update or read of the order index builds
``deg+``, the k-order and ``mcd`` from it (:meth:`_build_deferred`), so
a run of rebuilt batches builds them zero times.  The constructor builds
both at once.  Every rebuilt batch peels vertex ids
(:class:`~repro.core.decomposition.DenseIds`) and diffs their cores by
id: a run's first numbers the graph once its ops landed, and the ids are
kept in step with the graph, so later ones land their ops on them and
peel them with no id lookup (:meth:`_land`).  Any other update drops
them, so a graph that is only maintained never holds them.

Example
-------
>>> from repro.graphs import DynamicGraph
>>> from repro.core import OrderedCoreMaintainer, core_numbers
>>> from repro.engine import Batch
>>> g = DynamicGraph([(0, 1), (1, 2), (2, 0)])
>>> m = OrderedCoreMaintainer(g)
>>> m.core_of(0)
2
>>> result = m.insert_edge(0, 3)
>>> m.core_of(3)
1
>>> _ = m.rebuild_batch(Batch.inserts([(0, 4), (1, 4), (2, 4)]))
>>> m.core_of(4)
3
>>> result = m.insert_edge(3, 4)
>>> core_numbers(m.graph) == m.core_numbers()
True
"""

from __future__ import annotations

from abc import abstractmethod
from typing import Hashable, Mapping, Optional, Sequence

from repro.core.decomposition import (
    DenseIds,
    KOrderDecomposition,
    compute_mcd,
    dense_peel,
    korder_decomposition,
    later_degrees,
)
from repro.core.insertion import order_insert
from repro.core.korder import KOrder
from repro.core.removal import demote_level, detach_edge, order_remove_run
from repro.engine.base import CoreMaintainer, UpdateResult
from repro.engine.batch import Batch, RemovalRunResult
from repro.errors import InvariantViolationError
from repro.graphs.undirected import DynamicGraph
from repro.structures.sequence import SequenceStats

Vertex = Hashable


class OrderFamilyMaintainer(CoreMaintainer):
    """State and plumbing shared by the order-family engines.

    Both engines hold the same index — core numbers, the k-order (whose
    blocks carry the paper's ``deg+``) and the max-core degrees ``mcd``
    — and run the same kernel: :func:`~repro.core.insertion.order_insert`
    and the :mod:`repro.core.removal` cascades.  Removals are defined
    here once; the engines differ only in the ``mcd`` upkeep around an
    insertion run (``_insert_run``) and in the counter they charge
    (:meth:`_charge_removal`; :class:`OrderedCoreMaintainer`:
    ``mcd_recomputations``;
    :class:`~repro.core.simplified.SimplifiedCoreMaintainer`:
    ``candidate_visits``).

    Parameters
    ----------
    graph:
        The graph to index; the maintainer takes ownership (all further
        updates must go through :meth:`insert_edge` / :meth:`remove_edge`).
    policy:
        The constructor's k-order generation heuristic (``"small"``,
        ``"large"``, ``"random"``; Section VI — ``"small"`` is the
        paper's choice).  Only the Fig. 9 experiment picks another;
        engines built by registry name always use ``"small"``, and a
        rebuilt batch always peels smallest remaining degree first.
    seed:
        Makes the random policy deterministic.
    audit:
        When true, the full index is audited after every update and every
        rebuilt batch; meant for tests (it costs ``O(m log n)`` per update).
    """

    def __init__(
        self,
        graph: DynamicGraph,
        policy: str = "small",
        seed: Optional[int] = 0,
        audit: bool = False,
    ) -> None:
        super().__init__(graph)
        self._audit = audit
        self._policy = policy
        self._seed = seed
        #: The one stats object every k-order of this engine counts in.
        self._stats = SequenceStats()
        #: The last peel's ``(vx, vert)`` (its order: ``vx[i]`` for ``i`` in
        #: ``vert``), kept until ``deg+``, the k-order and ``mcd`` are built
        #: from it; ``None`` once they are.
        self._peel: Optional[tuple[list, Sequence[int]]] = None
        self._korder: Optional[KOrder] = None
        self._mcd: Optional[dict[Vertex, int]] = None
        #: The vertex ids every rebuilt batch peels, kept in step with
        #: the graph (:meth:`_land`) until any other update drops them.
        self._ids: Optional[DenseIds] = None
        self._build_index()
        self._build_deferred()

    def _build_index(self) -> None:
        """The constructor's peel, by the engine's policy: fold its cores
        into :attr:`_core` and keep its order for
        :meth:`_build_deferred`.  The small policy peels with
        :func:`dense_peel`."""
        if self._policy == "small":
            vx, core, vert = dense_peel(self._graph)
            self._core.update(zip(vx, core))
            self._peel = (vx, vert)
        else:
            peel = korder_decomposition(
                self._graph, policy=self._policy, seed=self._seed
            )
            self._core.update(peel.core)
            self._peel = (peel.order, range(len(peel.order)))

    def _rebuild_diff(self) -> dict[Vertex, int]:
        """Peel the ids the rebuilt batch landed on (:meth:`_land`), diff
        their cores by id against the last peel's and write only the
        changes into :attr:`_core`.  The k-order and ``mcd`` are dropped,
        marked not built."""
        ids = self._ids
        old = ids.core
        core, vert = ids.peel()
        vx, cores = ids.vx, self._core
        # Vertices numbered since the last peel count from 0.
        cores.update(dict.fromkeys(vx[len(old):], 0))
        old += [0] * (len(vx) - len(old))
        changed = {
            vx[i]: c - o for i, (o, c) in enumerate(zip(old, core)) if c != o
        }
        for v, delta in changed.items():
            cores[v] += delta
        self._peel = (vx, vert)
        self._korder = self._mcd = None
        return changed

    def _land(self, batch: Batch) -> None:
        """Land a rebuilt batch's ops on the kept ids, which pass each op
        to the graph first.  A run's first rebuilt batch lands on the
        graph and then numbers it, filing the cores the engine held, so
        its peel sees what :func:`dense_peel` would; it numbers the graph
        even when an op raised, so the ids always match the graph."""
        if self._ids is not None:
            super()._land(batch, self._ids)
            return
        try:
            super()._land(batch)
        finally:
            self._ids = DenseIds(self._graph, self._core)

    def _materialize(self) -> None:
        """Ready the index for an update other than a rebuilt batch: drop
        the kept ids, which the update would leave behind the graph, and
        build the deferred index."""
        self._ids = None
        self._build_deferred()

    def _build_deferred(self) -> None:
        """Build ``deg+``, the k-order and ``mcd`` from the last peel's
        order, unless they are built.  Runs at the top of every path that
        reads or changes the order index."""
        if self._peel is None:
            return
        vx, vert = self._peel
        self._peel = None
        order = [vx[i] for i in vert]
        del vx, vert  # Held through the build, they would raise its peak.
        # The build reads cores from the live map: one core dict, not two.
        peel = KOrderDecomposition(
            self._core, order, later_degrees(self._graph.adj, order)
        )
        self._korder = KOrder.from_decomposition(peel, stats=self._stats)
        self._mcd = compute_mcd(self._graph, self._core)

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------

    @property
    def korder(self) -> KOrder:
        """The maintained k-order, with ``deg+`` (treat as read-only)."""
        self._build_deferred()
        return self._korder

    @property
    def mcd(self) -> Mapping[Vertex, int]:
        """Maintained max-core degrees (read-only)."""
        self._build_deferred()
        return self._mcd

    @property
    def sequence_stats(self) -> SequenceStats:
        """Cumulative :class:`~repro.structures.sequence.SequenceStats`
        of the k-order's blocks (order queries, relabels): one object for
        the engine's life, read without building the k-order."""
        return self._stats

    def order(self) -> list[Vertex]:
        """The maintained k-order as a list.

        Each vertex has ``deg+(v) <= core(v)`` neighbors after it, so
        the list reversed is a degeneracy ordering.
        """
        return self.korder.order()

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------

    def insert_edge(self, u: Vertex, v: Vertex) -> UpdateResult:
        """OrderInsert: insert ``(u, v)`` as a one-edge insertion run."""
        return self._insert_run([(u, v)])[0]

    def remove_edge(self, u: Vertex, v: Vertex) -> UpdateResult:
        """OrderRemoval: remove ``(u, v)``, then one level-``K`` cascade
        seeded with the edge's roots (one edge demotes by at most one
        level, Theorem 3.1); cores, k-order and ``mcd`` end exact."""
        self._materialize()
        graph, korder, core, mcd = (
            self._graph, self._korder, self._core, self._mcd
        )
        cu, cv = detach_edge(graph, korder, core, mcd, u, v)
        K = min(cu, cv)
        roots = (u, v) if cu == cv else (u,) if cu < cv else (v,)
        v_star, visited = demote_level(graph, korder, core, mcd, K, roots)
        self._charge_removal(len(v_star), visited)
        if self._audit:
            self.check()
        return UpdateResult("remove", (u, v), K, tuple(v_star), visited)

    def _remove_run(self, edges) -> RemovalRunResult:
        """Remove a run of edges through the batch-native joint cascade
        (:func:`~repro.core.removal.order_remove_run`)."""
        self._materialize()
        run = order_remove_run(
            self._graph, self._korder, self._core, self._mcd, edges
        )
        self._charge_removal(run.recomputed, run.visited)
        if self._audit:
            self.check()
        return run

    @abstractmethod
    def _charge_removal(self, demoted: int, visited: int) -> None:
        """Fold one removal's cost into the engine's counter: ``demoted``
        vertices (each had its ``mcd`` recomputed in the cascade) and
        ``visited`` examined ``mcd`` bounds."""

    # ------------------------------------------------------------------
    # Vertices
    # ------------------------------------------------------------------

    def add_vertex(self, vertex: Vertex) -> bool:
        self._materialize()
        if not self._graph.add_vertex(vertex):
            return False
        self._register_vertex(vertex)
        return True

    def _register_vertex(self, vertex: Vertex) -> None:
        """Index a vertex just added to the graph; callers build the
        index (:meth:`_materialize`) before they add it."""
        self._core[vertex] = 0
        self._korder.append(0, vertex)
        self._korder.deg_plus[vertex] = 0
        self._mcd[vertex] = 0

    def _forget_vertex(self, vertex: Vertex) -> None:
        if self._core.pop(vertex, None) is None:
            return
        self._korder.forget(vertex)
        self._mcd.pop(vertex, None)

    # ------------------------------------------------------------------
    # Audit
    # ------------------------------------------------------------------

    def check(self) -> None:
        """Audit the whole index; raises on violation (used in tests).

        :meth:`KOrder.audit` validates Lemma 5.1 and ``deg+``; ``mcd`` is
        recomputed from scratch and compared.
        """
        self._build_deferred()
        self._korder.audit(self._graph, self._core)
        expected = compute_mcd(self._graph, self._core)
        if expected != self._mcd:
            bad = {
                v: (self._mcd.get(v), expected[v])
                for v in expected
                if self._mcd.get(v) != expected[v]
            }
            raise InvariantViolationError(f"mcd out of sync: {bad}")

    def _batch_counters(self) -> dict[str, int]:
        """Cumulative instrumentation plus the k-order's sequence stats,
        read without building the k-order."""
        counters = super()._batch_counters()
        counters.update(self._stats.as_dict())
        return counters


class OrderedCoreMaintainer(OrderFamilyMaintainer):
    """Dynamic core maintenance via an explicitly maintained k-order.

    The paper's engine: after each insertion run a targeted ``mcd``
    repair pass runs over the changed vertices' neighborhoods (a
    per-edge insert is a one-edge run).  ``mcd_recomputations`` charges
    that pass and, for removals, one recomputation per demoted vertex.
    Parameters are those of :class:`OrderFamilyMaintainer`.
    """

    name = "order"

    #: Per-vertex ``mcd`` recomputations performed by repairs — the cost
    #: the batched path amortizes.
    mcd_recomputations = 0

    #: The insertion scan; the jump ablation
    #: (:class:`~repro.core.ablation.ScanningOrderedCoreMaintainer`)
    #: swaps in a sequential one.
    _order_insert = staticmethod(order_insert)

    def _charge_removal(self, demoted: int, visited: int) -> None:
        self.mcd_recomputations += demoted

    def _build_deferred(self) -> None:
        """Charge a deferred build's ``mcd``: one recomputation per
        vertex.  The constructor's build, which :attr:`rebuilds` does not
        count either, is not charged."""
        if self._peel is not None and self.rebuilds:
            self.mcd_recomputations += self._graph.n
        super()._build_deferred()

    def _batch_counters(self) -> dict[str, int]:
        """Cumulative instrumentation (sequence stats + ``mcd`` repairs)."""
        counters = super()._batch_counters()
        counters["mcd_recomputations"] = self.mcd_recomputations
        return counters

    def _insert_run(self, edges) -> list[UpdateResult]:
        """Insert a run of edges with one coalesced ``mcd`` repair.

        During the run only cores and the k-order are maintained;
        ``old_core`` records each changed vertex's core *before* its first
        promotion so the boundary repair can tell which neighbors' levels
        the vertex crossed over the whole run.
        """
        self._materialize()
        graph, korder, core, mcd = (
            self._graph, self._korder, self._core, self._mcd
        )
        endpoints: set[Vertex] = set()
        old_core: dict[Vertex, int] = {}
        results = []
        try:
            for u, v in edges:
                for endpoint in (u, v):
                    if endpoint not in graph.adj:
                        graph.add_vertex(endpoint)
                        self._register_vertex(endpoint)
                v_star, k, visited, evicted = self._order_insert(
                    graph, korder, core, u, v
                )
                for w in v_star:
                    # order_insert already bumped core[w]; remember the value
                    # it had before its first promotion in this run.
                    old_core.setdefault(w, core[w] - 1)
                endpoints.update((u, v))
                results.append(
                    UpdateResult(
                        "insert", (u, v), k, tuple(v_star), visited, evicted
                    )
                )
        finally:
            # Boundary repair: endpoints and promoted vertices from scratch
            # (adjacency or core changed); any other neighbor z of a promoted
            # vertex gains +1 for each neighbor whose core crossed core(z).
            # Runs even when an op raises (e.g. EdgeExistsError) so the
            # edges that did land leave mcd consistent.
            recomputed = endpoints | old_core.keys()
            for w in recomputed:
                cw = core[w]
                mcd[w] = sum(1 for x in graph.adj[w] if core[x] >= cw)
            self.mcd_recomputations += len(recomputed)
            for w, before in old_core.items():
                after = core[w]
                for z in graph.adj[w]:
                    if z in recomputed:
                        continue
                    if before < core[z] <= after:
                        mcd[z] += 1
        if self._audit:
            self.check()
        return results
