"""The simplified order-based engine (Guo & Sekerinski, arXiv 2201.07103).

*Simplified Algorithms for Order-Based Core Maintenance* reformulates
Zhang et al.'s order-based maintenance on two *order-local* counters:

``d_out(v)``
    Neighbors appearing **after** ``v`` in the global k-order.  This is
    exactly the paper's ``deg+`` (Definition 5.2), stored in
    ``korder.deg_plus``.
``d_in(v)``
    Neighbors appearing **before** ``v`` in the global k-order *with the
    same core number* (i.e. earlier in ``v``'s own block).

The load-bearing identity: because the k-order is sorted by core number,
every successor of ``v`` has ``core >= core(v)`` and every same-block
predecessor has ``core == core(v)``, so

    ``d_in(v) + d_out(v) == mcd(v)``    (always)

What is stored
--------------
The engine stores the identity's sum, ``mcd``, next to ``deg+`` — the
same index as :class:`~repro.core.maintainer.OrderedCoreMaintainer` —
and exposes ``d_in = mcd - d_out`` and ``d_out`` as read-only views.
Both engines run the same kernel; only the ``mcd`` upkeep around it
differs.

Why no mirror and no repair pass
--------------------------------
During an insertion scan, ``mcd`` is unchanged for every vertex that
stays at core ``K``: the promoted vertices move from ``K`` to ``K+1``,
still at or above its level.  So :func:`~repro.core.insertion.order_insert`
runs unchanged, and after it the engine pays only O(1) endpoint upkeep
plus one adjacency pass per promoted vertex (recompute its ``mcd``; each
old ``O_{K+1}`` neighbor gains one).  The ``order`` engine instead
recomputes ``mcd`` of the endpoints and of ``V*`` from scratch after
every insertion run (its ``mcd_recomputations``).

Removals — per edge and per run — are
:class:`~repro.core.maintainer.OrderFamilyMaintainer`'s, shared with the
``order`` engine: :func:`~repro.core.removal.demote_level` keeps ``mcd``
exact incrementally (stayers decremented, each mover recomputed in the
adjacency scan the cascade already pays for), so no refresh pass follows.
What remains chargeable is the candidate scan itself, reported as
``candidate_visits`` (the engine's analogue of ``|V+|`` / ``|V'|``),
which replaces ``mcd_recomputations`` in
:class:`~repro.engine.batch.BatchResult` counters.

The engine registers as ``make_engine("order-simplified")``, the
registry default.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Mapping

from repro.core.insertion import order_insert
from repro.core.maintainer import OrderFamilyMaintainer
from repro.engine.base import UpdateResult
from repro.graphs.undirected import DynamicGraph

Vertex = Hashable


def compute_d_in(
    graph: DynamicGraph, core: Mapping[Vertex, int], order: Iterable[Vertex]
) -> dict[Vertex, int]:
    """``d_in`` from scratch: same-core neighbors earlier in ``order``."""
    position = {v: i for i, v in enumerate(order)}
    return {
        v: sum(
            1
            for w in nbrs
            if core[w] == core[v] and position[w] < position[v]
        )
        for v, nbrs in graph.adj.items()
    }


class SimplifiedCoreMaintainer(OrderFamilyMaintainer):
    """Guo–Sekerinski simplified order-based core maintenance.

    Drop-in alternative to
    :class:`~repro.core.maintainer.OrderedCoreMaintainer` with the same
    index and kernel but no per-update ``mcd`` repair pass: ``mcd`` is
    kept exact by O(1) endpoint upkeep, one pass over the promoted
    vertices, and the incremental removal cascade.  Created as
    ``make_engine("order-simplified")``; the initial k-order comes from
    the paper's ``"small"`` heuristic.

    ``audit`` re-checks every invariant after each update (tests only).
    Batches commit run-natively through the run hooks of
    :meth:`~repro.engine.base.CoreMaintainer.apply_batch`: removals are
    the shared family path, insertion runs go through one loop with a
    single boundary audit (a per-edge insert is a one-edge run).
    """

    name = "order-simplified"

    #: Vertices examined by the insertion scan / removal cascade — the
    #: engine's cost driver, replacing ``mcd_recomputations`` in batch
    #: counters.
    candidate_visits = 0

    @property
    def d_in(self) -> dict[Vertex, int]:
        """Same-block predecessor counts, derived as ``mcd - d_out``.

        Built on each access (O(V)); index it once, not per vertex.
        """
        d_out = self.korder.deg_plus
        return {v: m - d_out[v] for v, m in self.mcd.items()}

    @property
    def d_out(self) -> Mapping[Vertex, int]:
        """Maintained successor counts — the paper's ``deg+`` (read-only)."""
        return self.korder.deg_plus

    # ------------------------------------------------------------------
    # Run commits (the apply_batch run hooks)
    # ------------------------------------------------------------------

    def _insert_run(self, edges) -> list[UpdateResult]:
        """Insert a run of edges with one boundary audit.

        Each insert leaves ``mcd`` exact, so there is no boundary repair
        to coalesce: the run is the per-edge path minus per-edge audits.
        """
        self._materialize()
        results = [self._insert(u, v) for u, v in edges]
        if self._audit:
            self.check()
        return results

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _insert(self, u: Vertex, v: Vertex) -> UpdateResult:
        """Insert ``(u, v)`` through the shared scan, then repair ``mcd``."""
        graph, korder, core, mcd = (
            self._graph, self._korder, self._core, self._mcd
        )
        adj = graph.adj
        for endpoint in (u, v):
            if endpoint not in adj:
                graph.add_vertex(endpoint)
                self._register_vertex(endpoint)
        cu, cv = core[u], core[v]
        v_star, k, visited, evicted = order_insert(graph, korder, u, v)
        self.candidate_visits += visited
        # The new edge counts for a non-promoted endpoint iff its
        # partner's pre-insert core is at least its own; a partner that
        # was promoted up to its level is counted below instead.
        if cv >= cu and core[u] == cu:
            mcd[u] += 1
        if cu >= cv and core[v] == cv:
            mcd[v] += 1
        if v_star:
            # Promotion K -> K+1 changes mcd only for the promoted
            # vertices (recomputed) and for their old O_{K+1} neighbors,
            # which each gain one qualifying neighbor.
            promoted = set(v_star)
            for w in v_star:
                count = 0
                for z in adj[w]:
                    cz = core[z]
                    if cz > k:
                        count += 1
                        if cz == k + 1 and z not in promoted:
                            mcd[z] += 1
                mcd[w] = count
        return UpdateResult(
            "insert", (u, v), k, tuple(v_star), visited, evicted
        )

    def _charge_removal(self, demoted: int, visited: int) -> None:
        self.candidate_visits += visited

    def _batch_counters(self) -> dict[str, int]:
        """Sequence stats plus the scan counter, in place of the ``order``
        engine's ``mcd_recomputations``."""
        counters = super()._batch_counters()
        counters["candidate_visits"] = self.candidate_visits
        return counters
