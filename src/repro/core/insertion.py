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
* All order tests go through ``block.order_key`` tokens, never ``rank``:
  a token is the item's OM-list node and compares in O(1) by its live
  label.  Every comparison the scan makes crosses the cursor (heap
  members and ``deg*`` recipients sit *after* it, settled and untouched
  vertices *before* it), and Observation 6.1 repositioning only moves
  evicted candidates to just behind the cursor, so relative positions
  across the cursor — and hence token comparisons — never change while
  the scan can still observe them.
* The Algorithm 3 order test ``w' ≼ w''`` between two candidates must use
  their *original* positions (the evictee may already have been
  repositioned).  Candidates are visited in original block order, so the
  visit sequence number recorded at visit time is an exact O(1) proxy
  for the original rank.
"""

from __future__ import annotations

from collections import deque
from typing import Hashable

from repro.core.korder import KOrder
from repro.graphs.undirected import DynamicGraph
from repro.structures.heaps import LazyMinHeap
from repro.structures.sequence import TaggedOrderList

Vertex = Hashable

_VC = 1  # currently a candidate for V*
_SETTLED = 2  # definitively not in V*


def order_insert(
    graph: DynamicGraph,
    korder: KOrder,
    core: dict[Vertex, int],
    u: Vertex,
    v: Vertex,
) -> tuple[list[Vertex], int, int, int]:
    """Insert ``(u, v)`` into ``graph`` and repair ``core`` and ``korder``.

    Returns ``(v_star, K, visited, evicted)`` where ``v_star`` lists the
    vertices whose core number rose by 1 (in k-order), ``K`` is the update
    level, ``visited`` is ``|V+|`` — the number of vertices the scan
    processed — and ``evicted`` counts candidates disproven by the
    Algorithm 3 cascade.

    The caller (the maintainer) is responsible for ``mcd`` upkeep.
    """
    graph.add_edge(u, v)

    # Preparing phase: orient the edge so that u ≼ v, bump deg+(u).
    if core[u] > core[v] or (core[u] == core[v] and korder.precedes(v, u)):
        u, v = v, u
    K = core[u]
    korder.deg_plus[u] += 1
    if korder.deg_plus[u] <= K:
        # O_K is still a valid k-order; no core number changes (Lemma 5.2).
        return [], K, 0, 0

    block = korder.block(K)
    deg_plus = korder.deg_plus

    heap = LazyMinHeap()
    heap.push(block.order_key(u), u)

    deg_star: dict[Vertex, int] = {}
    status: dict[Vertex, int] = {}
    visit_seq: dict[Vertex, int] = {}  # candidate -> visit (= original) order
    vc_order: list[Vertex] = []  # candidates in visit (= original) order
    visited = 0

    # Core phase: process interesting vertices in original O_K order.
    while True:
        item = heap.pop()
        if item is None:
            break
        key_v, vtx = item
        visited += 1
        if deg_star.get(vtx, 0) + deg_plus[vtx] > K:
            # Case-1: vtx may reach core K+1.
            status[vtx] = _VC
            visit_seq[vtx] = visited
            vc_order.append(vtx)
            for w in graph.adj[vtx]:
                # Every core-K vertex is still physically in the O_K block
                # during the scan, so membership tests core(w) == K exactly.
                if w in block and w not in status:
                    key_w = block.order_key(w)
                    if key_w > key_v:
                        new_star = deg_star.get(w, 0) + 1
                        deg_star[w] = new_star
                        if new_star == 1:
                            heap.push(key_w, w)
        else:
            # Case-2b: vtx settles in place with deg+ absorbing deg*.
            deg_plus[vtx] += deg_star.pop(vtx, 0)
            status[vtx] = _SETTLED
            _remove_candidates(
                graph, block, deg_plus, deg_star, status, visit_seq,
                heap, vtx, key_v, K,
            )

    # Ending phase: VC is exactly V*.
    v_star = [w for w in vc_order if status[w] == _VC]
    evicted = len(vc_order) - len(v_star)
    if v_star:
        for w in v_star:
            core[w] = K + 1
            korder.remove(w)
        korder.prepend_chain(K + 1, v_star)
    return v_star, K, visited, evicted


def _remove_candidates(
    graph: DynamicGraph,
    block: TaggedOrderList,
    deg_plus: dict[Vertex, int],
    deg_star: dict[Vertex, int],
    status: dict[Vertex, int],
    visit_seq: dict[Vertex, int],
    heap: LazyMinHeap,
    settled: Vertex,
    key_cursor,
    K: int,
) -> None:
    """Algorithm 3: cascade candidate evictions after ``settled`` settled.

    ``settled`` just left the candidate pool's reach (it stays at core K),
    so each candidate neighbor loses one unit of ``deg+``; any candidate
    dropping to ``deg* + deg+ <= K`` is evicted, settles right after the
    cursor (keeping O'_K consistent), and propagates further losses.

    ``key_cursor`` is the cursor's order token (``settled``'s heap key):
    unvisited vertices still compare after it, untouched skipped ranges
    before it.
    """
    queue: deque[Vertex] = deque()
    queued: set[Vertex] = set()

    for w in graph.adj[settled]:
        if status.get(w) == _VC:
            deg_plus[w] -= 1
            if deg_star.get(w, 0) + deg_plus[w] <= K and w not in queued:
                queue.append(w)
                queued.add(w)

    anchor = settled
    while queue:
        w1 = queue.popleft()
        # Evict w1: absorb deg*, settle immediately after the anchor.
        # move_after (not remove+reinsert) so any stale heap entry still
        # keying on w1 keeps comparing by live position.
        deg_plus[w1] += deg_star.pop(w1, 0)
        status[w1] = _SETTLED
        block.move_after(anchor, w1)
        anchor = w1
        seq_w1 = visit_seq[w1]
        for w2 in graph.adj[w1]:
            # Every core-K vertex is still in the block: membership is
            # the exact test for core(w2) == K.
            if w2 not in block:
                continue
            st = status.get(w2)
            if st is None:
                # Unvisited vertices sit after the cursor; untouched skipped
                # ranges sit before it and are unaffected.
                if block.order_key(w2) > key_cursor:
                    new_star = deg_star[w2] - 1
                    deg_star[w2] = new_star
                    if new_star == 0:
                        heap.discard(w2)
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

