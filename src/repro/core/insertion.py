"""``OrderInsert`` — Algorithms 2 and 3 of the paper.

When edge ``(u, v)`` is inserted with ``u ≼ v`` and ``K = core(u)``, only
vertices of ``O_K`` *after* ``u`` can enter ``V*`` (Lemmas 5.2/5.3), and
only those reachable from ``u`` through forward edges (i4).  The scan walks
``O_K`` left to right but **jumps** directly between interesting vertices
using the min-heap ``B`` keyed by block order, so Case-2a ranges (vertices
with ``deg* = 0``) are skipped wholesale without being touched.

Per visited vertex ``w`` the scan compares ``deg*(w) + deg+(w)`` to ``K``:

* Case-1 (``> K``): ``w`` is a candidate — goes to ``VC`` and grants one
  ``deg*`` unit to each core-``K`` neighbor after it.
* Case-2b (``<= K``, ``deg* > 0``): ``w`` settles in place, absorbing
  ``deg*`` into ``deg+``; :func:`_remove_candidates` (Algorithm 3) then
  cascades the loss through ``VC``, and every evicted candidate is
  re-appended *after* the settled cursor (Observation 6.1 repositioning).

At termination ``V* = VC``; its members move, order preserved, to the front
of ``O_{K+1}``, and their maintained ``deg+`` values are already correct for
the new order (see the paper's rationale at the end of Section V-B).

Implementation notes
--------------------
* Order tests compare the OM list's integer labels, read from the
  block's node map (``block.nodes``, fetched once per scan), so the jump
  heap is a plain :mod:`heapq` of ``(label, vertex)`` pairs and every
  test is one integer comparison in C.  Each label read charges one
  ``order_queries``.  Every comparison the scan makes crosses the cursor
  (heap members and ``deg*`` recipients sit *after* it, settled and
  untouched vertices *before* it), and Observation 6.1 repositioning
  only moves evicted candidates to just behind the cursor, so relative
  positions across the cursor never change while the scan can still
  observe them.
* Membership in ``O_K`` is ``core[w] == K``, read from the map the
  k-order orders by (``korder.core``): during the scan every core-``K``
  vertex is still in the block and no core number changes until the
  ending phase.
* Labels change only when an eviction's ``move_after`` relabels (the
  block's ``stats.relabels`` moves).  The scan then re-keys its live
  entries once from the node map and heapifies them, dropping stale
  entries with them; the cascade re-reads the cursor's label after each
  move.  A live dict (``vertex -> label``) marks which heap entries are
  current, so a discarded or re-pushed vertex leaves only stale pairs
  behind, skipped when popped.
* The Algorithm 3 order test ``w' ≼ w''`` between two candidates must use
  their *original* positions (the evictee may already have been
  repositioned).  Candidates are visited in original block order, so the
  visit sequence number recorded at visit time is an exact O(1) proxy
  for the original rank.
"""

from __future__ import annotations

from collections import deque
from heapq import heapify, heappop, heappush
from typing import Hashable, Mapping

from repro.core.korder import KOrder
from repro.graphs.undirected import DynamicGraph
from repro.structures.sequence import TaggedOrderList

Vertex = Hashable

_VC = 1  # currently a candidate for V*
_SETTLED = 2  # definitively not in V*


def order_insert(
    graph: DynamicGraph,
    korder: KOrder,
    u: Vertex,
    v: Vertex,
) -> tuple[list[Vertex], int, int, int]:
    """Insert ``(u, v)`` into ``graph`` and repair ``korder`` and the core
    map it orders by (``korder.core``).

    Returns ``(v_star, K, visited, evicted)`` where ``v_star`` lists the
    vertices whose core number rose by 1 (in k-order), ``K`` is the update
    level, ``visited`` is ``|V+|`` — the number of vertices the scan
    processed — and ``evicted`` counts candidates disproven by the
    Algorithm 3 cascade.

    The caller (the maintainer) is responsible for ``mcd`` upkeep.
    """
    graph.add_edge(u, v)
    core = korder.core

    # Preparing phase: orient the edge so that u ≼ v, bump deg+(u).
    cu, cv = core[u], core[v]
    if cu > cv or (cu == cv and korder.precedes(v, u)):
        u, v = v, u
    K = core[u]
    deg_plus = korder.deg_plus
    deg_plus[u] += 1
    if deg_plus[u] <= K:
        # O_K is still a valid k-order; no core number changes (Lemma 5.2).
        return [], K, 0, 0

    block = korder.block(K)
    nodes = block.nodes
    stats = block.stats
    adj = graph.adj

    key_u = nodes[u].label
    heap = [(key_u, u)]
    live = {u: key_u}  # heap members -> their current label
    queries = 1

    deg_star: dict[Vertex, int] = {}
    status: dict[Vertex, int] = {}
    visit_seq: dict[Vertex, int] = {}  # candidate -> visit (= original) order
    vc_order: list[Vertex] = []  # candidates in visit (= original) order
    visited = 0

    # Core phase: process interesting vertices in original O_K order.
    while heap:
        key_v, vtx = heappop(heap)
        if live.get(vtx) != key_v:
            continue  # discarded, or pushed again
        del live[vtx]
        visited += 1
        if deg_star.get(vtx, 0) + deg_plus[vtx] > K:
            # Case-1: vtx may reach core K+1.
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
                            heappush(heap, (key_w, w))
        else:
            # Case-2b: vtx settles in place with deg+ absorbing deg*.
            deg_plus[vtx] += deg_star.pop(vtx, 0)
            status[vtx] = _SETTLED
            relabels = stats.relabels
            queries += _remove_candidates(
                adj, block, core, deg_plus, deg_star, status, visit_seq,
                live, vtx, K,
            )
            if stats.relabels != relabels:
                # An eviction relabeled: re-key the live entries.
                live = {w: nodes[w].label for w in live}
                heap = [(key, w) for w, key in live.items()]
                heapify(heap)
    stats.order_queries += queries

    # Ending phase: VC is exactly V*.
    v_star = [w for w in vc_order if status[w] == _VC]
    evicted = len(vc_order) - len(v_star)
    if v_star:
        for w in v_star:
            core[w] = K + 1
        korder.promote_chain(K, v_star)
    return v_star, K, visited, evicted


def _remove_candidates(
    adj: Mapping[Vertex, set],
    block: TaggedOrderList,
    core: dict[Vertex, int],
    deg_plus: dict[Vertex, int],
    deg_star: dict[Vertex, int],
    status: dict[Vertex, int],
    visit_seq: dict[Vertex, int],
    live: dict[Vertex, int],
    settled: Vertex,
    K: int,
) -> int:
    """Algorithm 3: cascade candidate evictions after ``settled`` settled.

    ``settled`` just left the candidate pool's reach (it stays at core K),
    so each candidate neighbor loses one unit of ``deg+``; any candidate
    dropping to ``deg* + deg+ <= K`` is evicted, settles right after the
    cursor (keeping O'_K consistent), and propagates further losses.
    An unvisited vertex whose ``deg*`` drops to 0 leaves ``live``.

    ``settled`` is the cursor: unvisited vertices sit after it, untouched
    skipped ranges before it.  Returns the number of labels read, for
    the caller to charge to ``order_queries``.
    """
    queue: deque[Vertex] = deque()
    queued: set[Vertex] = set()

    for w in adj[settled]:
        if status.get(w) == _VC:
            deg_plus[w] -= 1
            if deg_star.get(w, 0) + deg_plus[w] <= K and w not in queued:
                queue.append(w)
                queued.add(w)

    nodes = block.nodes
    key_cursor = nodes[settled].label
    queries = 0
    anchor = settled
    while queue:
        w1 = queue.popleft()
        # Evict w1: absorb deg*, settle immediately after the anchor.
        deg_plus[w1] += deg_star.pop(w1, 0)
        status[w1] = _SETTLED
        block.move_after(anchor, w1)
        key_cursor = nodes[settled].label  # the move may have relabeled
        anchor = w1
        seq_w1 = visit_seq[w1]
        for w2 in adj[w1]:
            if core[w2] != K:  # not in O_K
                continue
            st = status.get(w2)
            if st is None:
                # Unvisited vertices sit after the cursor; untouched skipped
                # ranges sit before it and are unaffected.
                queries += 1
                if nodes[w2].label > key_cursor:
                    new_star = deg_star[w2] - 1
                    deg_star[w2] = new_star
                    if new_star == 0:
                        live.pop(w2, None)
            elif st == _VC:
                if seq_w1 < visit_seq[w2]:
                    deg_star[w2] -= 1
                else:
                    deg_plus[w2] -= 1
                if (
                    deg_star.get(w2, 0) + deg_plus[w2] <= K
                    and w2 not in queued
                ):
                    queue.append(w2)
                    queued.add(w2)
            # settled neighbors need no adjustment
    return queries
