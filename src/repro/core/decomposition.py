"""Static core decomposition and k-order generation (Algorithm 1 + §VI).

``CoreDecomp`` peels vertices whose remaining degree is below the current
``k``; the removal sequence *is* a k-order, and the remaining degree of a
vertex at its removal *is* its ``deg+`` (Section VI: "append u to O_{k-1};
deg+(u) <- deg(u)").

Three tie-breaking heuristics decide which removable vertex goes next:

* ``"small"`` — smallest remaining degree first, the heuristic the paper
  recommends, because vertices with small ``deg+`` placed early are less
  likely to enter Case-1 of ``OrderInsert`` later (fewer candidates,
  smaller ``V+``).  :func:`dense_peel` runs it as Batagelj–Zaversnik over
  ints: each call numbers the vertices ``0 .. n-1`` and peels flat
  ``deg`` / ``bins`` / ``pos`` / ``vert`` lists, one id lookup per
  adjacency entry.  An engine that peels after every batch keeps the
  numbering instead (:class:`DenseIds`: neighbour-id lists updated with
  each edge op) and peels those lists with no lookup.  A vertex stops
  losing degree once it reaches the level being peeled, so its ``deg+``
  is counted afterwards (:func:`later_degrees`), by the callers that
  need it.
* ``"large"`` — largest remaining degree below ``k`` first.
* ``"random"`` — uniformly random removable vertex.

Figure 9 of the paper compares the three; :mod:`repro.bench.experiments`
reproduces that comparison.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Hashable, Mapping, Optional, Sequence

from repro.graphs.undirected import DynamicGraph
from repro.structures.buckets import DegreeBuckets

Vertex = Hashable

#: Valid k-order generation heuristics.
POLICIES = ("small", "large", "random")


@dataclass
class KOrderDecomposition:
    """Result of a k-order producing core decomposition.

    Attributes
    ----------
    core:
        Vertex -> core number.
    order:
        All vertices in k-order (non-decreasing core number; a valid
        ``CoreDecomp`` removal sequence).
    deg_plus:
        Vertex -> remaining degree at removal time, i.e. the number of its
        neighbors that appear *after* it in ``order``.
    """

    core: dict[Vertex, int] = field(default_factory=dict)
    order: list[Vertex] = field(default_factory=list)
    deg_plus: dict[Vertex, int] = field(default_factory=dict)


def core_numbers(graph: DynamicGraph) -> dict[Vertex, int]:
    """Core number of every vertex, via linear bucket peeling."""
    vx, core, _ = dense_peel(graph)
    return dict(zip(vx, core))


def compute_mcd(
    graph: DynamicGraph, core: Mapping[Vertex, int]
) -> dict[Vertex, int]:
    """Max-core degree of every vertex: neighbors with ``core >= core(v)``.

    The traversal hierarchy's ``r_1`` and the order family's ``mcd``.
    """
    mcd: dict[Vertex, int] = {}
    for v, nbrs in graph.adj.items():
        k = core[v]
        count = 0
        for w in nbrs:
            if core[w] >= k:
                count += 1
        mcd[v] = count
    return mcd


def korder_decomposition(
    graph: DynamicGraph,
    policy: str = "small",
    seed: Optional[int] = None,
) -> KOrderDecomposition:
    """Core decomposition that also emits a k-order and ``deg+`` values.

    Parameters
    ----------
    graph:
        The input graph (not modified).
    policy:
        One of :data:`POLICIES`.
    seed:
        RNG seed, used only by the ``"random"`` policy.
    """
    if policy not in POLICIES:
        raise ValueError(f"unknown policy {policy!r}; expected one of {POLICIES}")
    if policy != "small":
        return _peel_staged(graph, policy, random.Random(seed))
    vx, core, vert = dense_peel(graph)
    order = [vx[i] for i in vert]
    return KOrderDecomposition(
        dict(zip(vx, core)), order, later_degrees(graph.adj, order)
    )


def dense_peel(
    graph: DynamicGraph,
) -> tuple[list[Vertex], list[int], list[int]]:
    """Batagelj–Zaversnik peel over ids numbered for this call.

    Returns ``(vx, core, vert)``: vertex ``vx[i]`` has id ``i`` and core
    number ``core[i]``, and ``vert`` lists the ids in removal order,
    smallest remaining degree first — a k-order.  ``O(m + n)``.
    """
    adj = graph.adj
    vx = list(adj)
    ids = {v: i for i, v in enumerate(vx)}
    nb = list(adj.values())
    deg = list(map(len, nb))
    bins, pos, vert = _bucket_sort(deg)
    # Swaps and moves touch only slots after the one being read.
    for v in vert:
        dv = deg[v]
        for w in nb[v]:
            u = ids[w]
            du = deg[u]
            if du > dv:
                # Move u to the front of its bucket, then shrink the
                # bucket by one: u now heads bucket du - 1.
                pu = pos[u]
                pw = bins[du]
                x = vert[pw]
                if u != x:
                    pos[u] = pw
                    vert[pu] = x
                    pos[x] = pu
                    vert[pw] = u
                bins[du] = pw + 1
                deg[u] = du - 1
    return vx, deg, vert


def _bucket_sort(deg: list[int]) -> tuple[list[int], list[int], list[int]]:
    """Batagelj–Zaversnik's set-up over ids ``0 .. n-1`` of degrees
    ``deg``: ``vert`` lists the ids by degree, ``pos[i]`` is id ``i``'s
    slot in it and ``bins[d]`` the first slot of degree ``d``."""
    bins = [0] * (max(deg, default=0) + 2)
    for d in deg:
        bins[d + 1] += 1
    for d in range(1, len(bins)):
        bins[d] += bins[d - 1]
    pos = [0] * len(deg)
    vert = [0] * len(deg)
    for v, d in enumerate(deg):
        p = pos[v] = bins[d]
        vert[p] = v
        bins[d] = p + 1
    bins.insert(0, 0)
    return bins, pos, vert


class DenseIds:
    """A graph's vertices numbered ``0 .. n-1``, kept in step with the
    graph for repeated peels.

    Vertex ``vx[i]`` has id ``i`` (``ids`` maps back) and ``nb[i]``
    lists its neighbours' ids.  :meth:`add_edge` and :meth:`remove_edge`
    apply an edge op to the graph, then to the lists; :meth:`peel` runs
    Batagelj–Zaversnik over the lists with no id lookup.  Vertices only
    join: the graph's own ``remove_vertex`` would leave the lists stale.

    Numbering a graph costs about as much as :func:`dense_peel` does, so
    a single peel is cheaper through :func:`dense_peel`; the lists pay
    only when they are peeled again.
    """

    __slots__ = ("graph", "vx", "ids", "nb")

    def __init__(self, graph: DynamicGraph) -> None:
        adj = graph.adj
        self.graph = graph
        self.vx = vx = list(adj)
        self.ids = ids = {v: i for i, v in enumerate(vx)}
        get = ids.__getitem__
        self.nb = [list(map(get, nbrs)) for nbrs in adj.values()]

    def _number(self, vertex: Vertex) -> int:
        i = self.ids[vertex] = len(self.vx)
        self.vx.append(vertex)
        self.nb.append([])
        return i

    def add_edge(self, u: Vertex, v: Vertex) -> None:
        """``graph.add_edge(u, v)``, then the same edge in the lists."""
        self.graph.add_edge(u, v)
        ids = self.ids
        # u first, as the graph adds a missing u before v.
        iu = ids.get(u)
        if iu is None:
            iu = self._number(u)
        iv = ids.get(v)
        if iv is None:
            iv = self._number(v)
        nb = self.nb
        nb[iu].append(iv)
        nb[iv].append(iu)

    def remove_edge(self, u: Vertex, v: Vertex) -> None:
        """``graph.remove_edge(u, v)``, then the same edge in the lists."""
        self.graph.remove_edge(u, v)
        ids, nb = self.ids, self.nb
        iu, iv = ids[u], ids[v]
        nb[iu].remove(iv)
        nb[iv].remove(iu)

    def peel(self) -> tuple[list[int], list[int]]:
        """Peel the lists; returns ``(core, vert)`` as :func:`dense_peel`
        does (id-aligned cores, ids in removal order).  ``O(m + n)``."""
        nb = self.nb
        deg = list(map(len, nb))
        bins, pos, vert = _bucket_sort(deg)
        # dense_peel's loop, less its ids[w] lookup.
        for v in vert:
            dv = deg[v]
            for u in nb[v]:
                du = deg[u]
                if du > dv:
                    pu = pos[u]
                    pw = bins[du]
                    x = vert[pw]
                    if u != x:
                        pos[u] = pw
                        vert[pu] = x
                        pos[x] = pu
                        vert[pw] = u
                    bins[du] = pw + 1
                    deg[u] = du - 1
        return deg, vert


def later_degrees(
    adj: Mapping[Vertex, set], order: Sequence[Vertex]
) -> dict[Vertex, int]:
    """``deg+`` along ``order``: each vertex's neighbors after it."""
    deg_plus: dict[Vertex, int] = {}
    seen: set[Vertex] = set()
    for v in reversed(order):
        deg_plus[v] = len(adj[v] & seen)
        seen.add(v)
    return deg_plus


def _peel_staged(
    graph: DynamicGraph,
    policy: str,
    rng: random.Random,
) -> KOrderDecomposition:
    """Stage-by-stage peel (explicit ``k`` loop of Algorithm 1).

    At stage ``k`` every vertex with remaining degree below ``k`` is
    removable; the policy picks which removable vertex goes next.
    """
    result = KOrderDecomposition()
    adj = graph.adj
    buckets = DegreeBuckets({v: len(nbrs) for v, nbrs in adj.items()})
    k = 1
    while buckets:
        while True:
            if policy == "large":
                item = buckets.pop_max_below(k)
            else:
                item = buckets.pop_random_below(k, rng)
            if item is None:
                break
            vertex, degree = item
            result.core[vertex] = k - 1
            result.deg_plus[vertex] = degree
            result.order.append(vertex)
            for w in adj[vertex]:
                if w in buckets:
                    buckets.decrease(w)
        k += 1
    return result


def is_valid_korder(
    graph: DynamicGraph,
    core: dict[Vertex, int],
    order: list[Vertex],
) -> bool:
    """Check Lemma 5.1: an order is a k-order iff cores are non-decreasing
    along it and every vertex has at most ``core(v)`` neighbors after it."""
    position = {v: i for i, v in enumerate(order)}
    if len(position) != graph.n:
        return False
    previous = None
    for v in order:
        if previous is not None and core[v] < previous:
            return False
        previous = core[v]
        later = sum(1 for w in graph.adj[v] if position[w] > position[v])
        if later > core[v]:
            return False
    return True
