"""Static core decomposition and k-order generation (Algorithm 1 + §VI).

``CoreDecomp`` peels vertices whose remaining degree is below the current
``k``; the removal sequence *is* a k-order, and the remaining degree of a
vertex at its removal *is* its ``deg+`` (Section VI: "append u to O_{k-1};
deg+(u) <- deg(u)").

Three tie-breaking heuristics decide which removable vertex goes next:

* ``"small"`` — smallest remaining degree first, the heuristic the paper
  recommends, because vertices with small ``deg+`` placed early are less
  likely to enter Case-1 of ``OrderInsert`` later (fewer candidates,
  smaller ``V+``).  :func:`dense_peel` runs it as a FIFO bucket queue
  over ids ``0 .. n-1`` it numbers per call: a neighbour whose degree
  drops joins the back of its new degree's bucket, and a stale entry is
  skipped, so equal degrees leave in the order they reached them.  An
  engine's rebuilt batches number the graph once and keep the numbering
  (:class:`DenseIds`: neighbour-id lists updated with each edge op),
  peeling those lists with no id lookup.  A vertex stops losing
  degree once it reaches the level being peeled, so its ``deg+`` is
  counted afterwards (:func:`later_degrees`), by the callers that need
  it.
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
    """FIFO bucket-queue peel over ids numbered for this call.

    Returns ``(vx, core, vert)``: vertex ``vx[i]`` has id ``i`` and core
    number ``core[i]``, and ``vert`` lists the ids in removal order,
    smallest remaining degree first and equal degrees in the order they
    reached it — a k-order.  ``O(m + n)``.

    A triangle with a pendant 4 on 3: 4 leaves first, at level 1, and
    drops 3 to degree 2 behind 1 and 2.

    >>> graph = DynamicGraph([(1, 2), (2, 3), (3, 1), (3, 4)])
    >>> vx, core, vert = dense_peel(graph)
    >>> dict(zip(vx, core)), [vx[i] for i in vert]
    ({1: 2, 2: 2, 3: 2, 4: 1}, [4, 1, 2, 3])
    >>> is_valid_korder(graph, dict(zip(vx, core)), [vx[i] for i in vert])
    True
    """
    adj = graph.adj
    vx = list(adj)
    ids = {v: i for i, v in enumerate(vx)}
    nb = list(adj.values())
    deg = list(map(len, nb))
    buckets = _buckets(deg)
    vert = []
    # Appends to the bucket being walked are walked too.
    for d, bucket in enumerate(buckets):
        for v in bucket:
            if deg[v] != d:
                continue
            vert.append(v)
            for w in nb[v]:
                u = ids[w]
                du = deg[u]
                if du > d:
                    deg[u] = du = du - 1
                    buckets[du].append(u)
    return vx, deg, vert


def _buckets(deg: list[int]) -> list[list[int]]:
    """The ids ``0 .. n-1`` filed by degree: ``buckets[d]`` lists the
    ids of degree ``d``, in id order."""
    buckets = [[] for _ in range(max(deg, default=-1) + 1)]
    for v, d in enumerate(deg):
        buckets[d].append(v)
    return buckets


class DenseIds:
    """A graph's vertices numbered ``0 .. n-1``, kept in step with the
    graph for repeated peels.

    Vertex ``vx[i]`` has id ``i`` (``ids`` maps back) and ``nb[i]``
    lists its neighbours' ids.  :meth:`add_edge` and :meth:`remove_edge`
    apply an edge op to the graph, then to the lists; :meth:`peel` runs
    :func:`dense_peel`'s loop over the lists with no id lookup and keeps
    the cores it found in ``core``.  That starts as ``cores`` read for
    the graph's first ``len(cores)`` vertices, which must be the ones
    ``cores`` holds.  Vertices only join: the graph's own
    ``remove_vertex`` would leave the lists stale.

    Numbering a graph plus a peel of the lists costs 1.25–2.0× a
    :func:`dense_peel`, so a single peel is cheaper through
    :func:`dense_peel`: the constructors and recovery peel that way, and
    only rebuilt batches, which may follow one another, keep the lists.
    """

    __slots__ = ("graph", "vx", "ids", "nb", "core")

    def __init__(
        self, graph: DynamicGraph, cores: Mapping[Vertex, int]
    ) -> None:
        adj = graph.adj
        self.graph = graph
        self.vx = vx = list(adj)
        self.ids = ids = {v: i for i, v in enumerate(vx)}
        get = ids.__getitem__
        self.nb = [list(map(get, nbrs)) for nbrs in adj.values()]
        self.core = [cores[v] for v in vx[: len(cores)]]

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
        does (id-aligned cores, ids in removal order) and keeps ``core``.
        ``O(m + n)``."""
        nb = self.nb
        deg = list(map(len, nb))
        buckets = _buckets(deg)
        vert = []
        # dense_peel's loop, less its ids[w] lookup.
        for d, bucket in enumerate(buckets):
            for v in bucket:
                if deg[v] != d:
                    continue
                vert.append(v)
                for u in nb[v]:
                    du = deg[u]
                    if du > d:
                        deg[u] = du = du - 1
                        buckets[du].append(u)
        self.core = deg
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
