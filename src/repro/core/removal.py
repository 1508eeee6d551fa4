"""``OrderRemoval`` — Algorithm 4 of the paper — and its batch-native run.

Finding ``V*`` reuses the traversal-removal cascade: repeatedly dispose
of core-``K`` vertices whose ``mcd`` bound dropped below ``K`` (they
cannot stay in the ``K``-core).  That part is already cheap —
``O(sum deg over V*)``.

The paper's gain on removals is the *index* repair: instead of the 2-hop
``pcd`` maintenance of the traversal algorithm, only the k-order is
repaired: every disposed vertex is appended, in disposal order, to the end
of ``O_{K-1}``; its own ``deg+`` is recomputed from its neighborhood, and
each still-core-``K`` neighbor that preceded it loses one ``deg+`` unit
(the vertex jumped from after them to before them).  Vertices already in
``O_{K-1}`` are unaffected (the newcomers land *behind* them).

The building blocks:

* :func:`detach_edge` — the edge leaves the graph with its O(1) index
  upkeep (``deg+`` and the early ``mcd`` decrements of Algorithm 4
  lines 3-4).
* :func:`demote_level` — one joint ``V*`` cascade at level ``K`` and its
  k-order repair.  The cascade keeps ``mcd`` exact *incrementally*: a
  demotion ``K -> K-1`` decrements ``mcd`` of the core-``K`` neighbors
  (the only ones that lose a qualifying neighbor) and recomputes the
  demoted vertex's own ``mcd`` during the adjacency scan the cascade
  already pays for, so no refresh pass follows.
* :func:`order_remove_run` — the batch-native run (in the spirit of
  Guo & Sekerinski 2022's simplified order-based variants).  All edges
  of a removal run are detached up front; then one :func:`demote_level`
  runs per affected ``K``-level, highest level first, seeded with
  *every* sub-threshold root of that level at once, so overlapping
  neighborhoods are walked once per run instead of once per edge.  It
  returns a :class:`~repro.engine.batch.RemovalRunResult`, the type
  every engine's removal-run hook hands to
  :meth:`~repro.engine.base.CoreMaintainer.apply_batch`.

A per-edge removal
(:meth:`repro.core.maintainer.OrderFamilyMaintainer.remove_edge`) is
:func:`detach_edge` followed by one :func:`demote_level` seeded with the
edge's roots: one level suffices because a single edge demotes by at
most one (Theorem 3.1).  Either path charges one ``mcd`` recomputation
per demotion.

Processing levels in descending order is sound because a level-``K``
cascade can only create new sub-threshold vertices at level ``K`` (its
own queue) or ``K - 1`` (the vertices it demotes): demoting ``w`` from
``K`` to ``K-1`` changes ``mcd`` only of neighbors with core exactly
``K``, and a vertex may lose several levels in one run (batches are not
limited to the per-edge ``|delta core| <= 1`` of Theorem 3.1).
"""

from __future__ import annotations

from typing import Hashable, Iterable

from repro.core.korder import KOrder
from repro.engine.batch import RemovalRunResult
from repro.graphs.undirected import DynamicGraph

Vertex = Hashable
Edge = tuple[Vertex, Vertex]


def detach_edge(
    graph: DynamicGraph,
    korder: KOrder,
    mcd: dict[Vertex, int],
    u: Vertex,
    v: Vertex,
) -> tuple[int, int]:
    """Remove ``(u, v)`` from ``graph`` with its O(1) index upkeep.

    The departing edge leaves the earlier endpoint's ``deg+`` (it counted
    the later endpoint); the order test reads the k-order, not the graph,
    so it is unaffected by the edge already being gone.  Each endpoint at
    the lower level loses one ``mcd`` unit (Algorithm 4, lines 3-4), so
    the cascade sees correct bounds.  Returns ``(core(u), core(v))``.
    """
    graph.remove_edge(u, v)  # validates before any index mutation
    core = korder.core
    cu, cv = core[u], core[v]
    if cu == cv:
        korder.stats.order_queries += 1
        nodes = korder.block(cu).nodes
        earlier = nodes[u].label < nodes[v].label
    else:
        earlier = cu < cv
    if earlier:
        korder.deg_plus[u] -= 1
    else:
        korder.deg_plus[v] -= 1
    if cu <= cv:
        mcd[u] -= 1
    if cv <= cu:
        mcd[v] -= 1
    return cu, cv


def _repair_level(
    graph: DynamicGraph,
    korder: KOrder,
    K: int,
    disposed: list[Vertex],
) -> None:
    """Move a level's ``V*`` to the tail of ``O_{K-1}`` in disposal order
    (Theorem 5.3).

    Each mover's ``deg+`` is recomputed from its neighborhood (stayers
    plus later-disposed members, which land behind it); every
    still-core-``K`` neighbor that preceded the mover loses one ``deg+``
    unit (the mover jumped from after it to before it).  Order tests
    compare integer labels read from the block's node map; removals
    never relabel, so labels read before a mover leaves stay valid.
    """
    remaining = set(disposed)
    core = korder.core
    nodes = korder.block(K).nodes
    adj = graph.adj
    deg_plus = korder.deg_plus
    queries = 0
    for w in disposed:
        remaining.discard(w)
        key_w = nodes[w].label
        queries += 1
        new_plus = 0
        for z in adj[w]:
            cz = core[z]
            if cz == K:
                queries += 1
                if nodes[z].label < key_w:
                    deg_plus[z] -= 1
            if cz >= K or z in remaining:
                new_plus += 1
        deg_plus[w] = new_plus
        korder.move_back(w, K)
    korder.stats.order_queries += queries


def demote_level(
    graph: DynamicGraph,
    korder: KOrder,
    mcd: dict[Vertex, int],
    K: int,
    seeds: Iterable[Vertex],
) -> tuple[list[Vertex], int]:
    """One joint ``V*`` cascade at level ``K``, then its k-order repair.

    Every seed still at core ``K`` is examined; those with ``mcd`` below
    ``K`` enter the cascade at once.  ``mcd`` stays exact incrementally:
    a demotion ``K -> K-1`` decrements ``mcd`` of the core-``K``
    neighbors (the only ones that lose a qualifying neighbor) and
    recomputes the demoted vertex's own ``mcd`` during the adjacency scan
    the cascade already pays for.  :func:`_repair_level` then moves the
    disposed vertices to the tail of ``O_{K-1}``.

    Returns ``(disposed, touched)``: ``V*`` in disposal order and the
    number of distinct vertices whose ``mcd`` bound was examined.
    """
    core = korder.core
    stack: list[Vertex] = []
    touched: set[Vertex] = set()
    for w in seeds:
        if core[w] != K:  # re-seeded at a lower level meanwhile
            continue
        touched.add(w)
        if mcd[w] < K:
            stack.append(w)
    if not stack:
        return [], len(touched)
    queued = set(stack)
    disposed: list[Vertex] = []
    below = K - 1
    while stack:
        w = stack.pop()
        disposed.append(w)
        core[w] = below
        new_mcd = 0
        for z in graph.adj[w]:
            cz = core[z]
            if cz >= below:
                new_mcd += 1
            if cz == K:
                # z lost a qualifying neighbor (w fell below K).
                touched.add(z)
                bound = mcd[z] - 1
                mcd[z] = bound
                if bound < K and z not in queued:
                    stack.append(z)
                    queued.add(z)
        mcd[w] = new_mcd
    _repair_level(graph, korder, K, disposed)
    return disposed, len(touched)


def order_remove_run(
    graph: DynamicGraph,
    korder: KOrder,
    mcd: dict[Vertex, int],
    edges: Iterable[Edge],
) -> RemovalRunResult:
    """Remove a whole run of ``edges`` and repair ``korder``, the core
    map it orders by (``korder.core``) and ``mcd``; ``mcd`` is exact
    when the call returns.  If an edge is invalid (absent from the
    graph), the run raises after first completing the cascades for the
    edges that did land, so the index stays fully consistent with the
    partially-updated graph.
    """
    # Vertices whose mcd dropped, keyed by their (stable until their
    # level is processed) core number: the joint-cascade seed sets.
    pending: dict[int, set[Vertex]] = {}
    result = RemovalRunResult()
    levels: list[int] = []
    try:
        for u, v in edges:
            # No reorder happens during this phase, so every order test
            # is against one stable k-order.
            cu, cv = detach_edge(graph, korder, mcd, u, v)
            # Seed any endpoint that fell below its level.
            if cu <= cv and mcd[u] < cu:
                pending.setdefault(cu, set()).add(u)
            if cv <= cu and mcd[v] < cv:
                pending.setdefault(cv, set()).add(v)
            result.removed += 1
    finally:
        # Runs even when an edge op raises, so the removals that did land
        # leave core/korder/mcd consistent before the error propagates.
        changed = result.changed
        while pending:
            K = max(pending)
            disposed, touched = demote_level(
                graph, korder, mcd, K, pending.pop(K)
            )
            result.visited += touched
            if not disposed:
                continue
            levels.append(K)
            result.recomputed += len(disposed)
            for w in disposed:
                changed[w] = changed.get(w, 0) - 1
            # Demotions may leave vertices sub-threshold at K-1 too —
            # batches can sink a vertex through several levels.
            lower = {w for w in disposed if mcd[w] < K - 1}
            if lower:
                pending.setdefault(K - 1, set()).update(lower)
        result.levels = tuple(levels)
    return result

