"""Ablation variant of ``OrderInsert``: sequential scan instead of jumps.

The paper's Case-2a handling ("jump" to the next vertex with
``deg* > 0`` via the min-heap ``B``, Algorithm 2 line 15) is the part of
the design that turns a potentially ``O(|O_K|)`` sweep into work
proportional to ``|V+|``.  To measure exactly how much that buys,
:func:`order_insert_scan` implements the same algorithm but walks ``O_K``
one vertex at a time, stepping over Case-2a vertices individually.

Semantics are identical (same ``V*``, same repaired k-order — the shared
Algorithm 3 implementation is reused verbatim); only the traversal
strategy differs: the vertices the jump heap would hold are kept in a
plain *live* dict for the termination test, never used to jump.  The
extra return value ``scanned`` counts sequential steps, so
``scanned - visited`` is exactly the work the jump heap eliminates.

:class:`ScanningOrderedCoreMaintainer` is the ``order`` engine with this
scan swapped in for its insertion runs; removals, ``mcd`` upkeep,
vertex bookkeeping and the audit are the ``order`` engine's own.
``benchmarks/bench_ablation_jump.py`` reports the comparison.
"""

from __future__ import annotations

from typing import Hashable, Optional

from repro.core.insertion import _SETTLED, _VC, _remove_candidates
from repro.core.korder import KOrder
from repro.core.maintainer import OrderedCoreMaintainer
from repro.graphs.undirected import DynamicGraph

Vertex = Hashable


def order_insert_scan(
    graph: DynamicGraph,
    korder: KOrder,
    u: Vertex,
    v: Vertex,
) -> tuple[list[Vertex], int, int, int, int]:
    """Insert ``(u, v)`` with a sequential ``O_K`` scan (no jumps).

    Returns ``(v_star, K, visited, evicted, scanned)`` — the first four
    match :func:`~repro.core.insertion.order_insert`'s; ``scanned``
    additionally counts every Case-2a vertex stepped over one at a time.
    """
    graph.add_edge(u, v)
    core = korder.core
    if core[u] > core[v] or (core[u] == core[v] and korder.precedes(v, u)):
        u, v = v, u
    K = core[u]
    korder.deg_plus[u] += 1
    if korder.deg_plus[u] <= K:
        return [], K, 0, 0, 0

    block = korder.block(K)
    nodes = block.nodes
    adj = graph.adj
    deg_plus = korder.deg_plus
    # The vertices the jump version's heap would hold — used only as a
    # live set for termination, never to find the next vertex.
    live: dict[Vertex, int] = {}
    deg_star: dict[Vertex, int] = {}
    status: dict[Vertex, int] = {}
    visit_seq: dict[Vertex, int] = {}
    vc_order: list[Vertex] = []
    visited = 0
    scanned = 0
    queries = 0

    cursor: Optional[Vertex] = u
    while cursor is not None:
        vtx = cursor
        cursor = block.successor(vtx)
        if status.get(vtx) is not None:
            # Evicted candidates get re-inserted just behind the walk;
            # they are settled and must not be re-processed.
            continue
        scanned += 1
        star = deg_star.get(vtx, 0)
        if star == 0 and not (vtx == u and deg_plus[u] > K):
            # Case-2a: provably not in V*; stays in place unchanged.  The
            # jump version skips this vertex without touching it at all.
            status[vtx] = _SETTLED
            if not live:
                break
            continue
        visited += 1
        live.pop(vtx, None)
        queries += 1
        key_v = nodes[vtx].label
        if star + deg_plus[vtx] > K:
            status[vtx] = _VC
            visit_seq[vtx] = visited
            vc_order.append(vtx)
            for w in adj[vtx]:
                if core[w] == K and w not in status:
                    queries += 1
                    key_w = nodes[w].label
                    if key_w > key_v:
                        new_star = deg_star.get(w, 0) + 1
                        deg_star[w] = new_star
                        if new_star == 1:
                            live[w] = key_w
        else:
            deg_plus[vtx] += deg_star.pop(vtx, 0)
            status[vtx] = _SETTLED
            queries += _remove_candidates(
                adj, block, core, deg_plus, deg_star, status, visit_seq,
                live, vtx, K,
            )
        if not live:
            break
    block.stats.order_queries += queries

    v_star = [w for w in vc_order if status[w] == _VC]
    evicted = len(vc_order) - len(v_star)
    if v_star:
        for w in v_star:
            core[w] = K + 1
        korder.promote_chain(K, v_star)
    return v_star, K, visited, evicted, scanned


class ScanningOrderedCoreMaintainer(OrderedCoreMaintainer):
    """The ``order`` engine with :func:`order_insert_scan` as its
    insertion scan, for the jump ablation.

    Exposes ``total_scanned`` so the ablation can report how many
    sequential steps the jump heap would have skipped.
    """

    name = "order-scan"

    #: Sequential steps taken by every scan so far.
    total_scanned = 0

    def _order_insert(self, graph, korder, u, v):
        v_star, k, visited, evicted, scanned = order_insert_scan(
            graph, korder, u, v
        )
        self.total_scanned += scanned
        return v_star, k, visited, evicted
