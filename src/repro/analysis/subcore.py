"""Structural vertex sets bounding the algorithms' search spaces.

Three nested notions from the paper, all computed here by BFS:

* ``sc(u)`` — the *subcore* (Section III): the maximal connected set of
  vertices with ``core == core(u)`` containing ``u``.  Theorem 3.2 confines
  ``V*`` to the subcores of the inserted/removed edge's endpoints.
* ``pc(u)`` — the *purecore* (Definition 4.1): like the subcore but every
  member besides ``u`` must additionally satisfy ``mcd(w) > core(w)``.
  Upper-bounds the traversal insertion algorithm's visited set ``V'``.
* ``oc(u)`` — the *order core* (Definition 5.4): vertices reachable from
  ``u`` along edges that go *forward* in k-order within the same core
  level.  Upper-bounds the order-based algorithm's ``V+`` (Lemma 5.4).

Figure 5 of the paper plots their cumulative size distributions; order
cores are dramatically smaller and tighter than the other two, which is the
structural explanation for the speedups in Table II.
"""

from __future__ import annotations

from typing import Hashable, Mapping

from repro.core.korder import KOrder
from repro.graphs.undirected import DynamicGraph

Vertex = Hashable


def sub_core(
    graph: DynamicGraph, core: Mapping[Vertex, int], u: Vertex
) -> set[Vertex]:
    """``sc(u)``: the connected same-coreness region around ``u``."""
    k = core[u]
    seen = {u}
    frontier = [u]
    while frontier:
        x = frontier.pop()
        for w in graph.adj[x]:
            if w not in seen and core[w] == k:
                seen.add(w)
                frontier.append(w)
    return seen


def pure_core(
    graph: DynamicGraph,
    core: Mapping[Vertex, int],
    mcd: Mapping[Vertex, int],
    u: Vertex,
) -> set[Vertex]:
    """``pc(u)``: the subcore restricted to vertices with ``mcd > core``.

    ``u`` itself is always included (Definition 4.1 puts no condition on
    the seed vertex).
    """
    k = core[u]
    seen = {u}
    frontier = [u]
    while frontier:
        x = frontier.pop()
        for w in graph.adj[x]:
            if w not in seen and core[w] == k and mcd[w] > k:
                seen.add(w)
                frontier.append(w)
    return seen


def order_core(
    graph: DynamicGraph, korder: KOrder, u: Vertex
) -> set[Vertex]:
    """``oc(u)``: forward-reachable same-coreness region (Definition 5.4).

    From any member ``x`` the set extends to neighbors ``w`` with
    ``core(w) == core(u)`` and ``x ≺ w`` in the k-order; cores are read
    from the map the k-order orders by (``korder.core``).
    """
    core = korder.core
    k = core[u]
    seen = {u}
    frontier = [u]
    while frontier:
        x = frontier.pop()
        for w in graph.adj[x]:
            if w not in seen and core[w] == k and korder.precedes(x, w):
                seen.add(w)
                frontier.append(w)
    return seen
