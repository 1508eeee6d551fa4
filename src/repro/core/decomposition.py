"""Static core decomposition and k-order generation (Algorithm 1 + §VI).

``CoreDecomp`` peels vertices whose remaining degree is below the current
``k``; the removal sequence *is* a k-order, and the remaining degree of a
vertex at its removal *is* its ``deg+`` (Section VI: "append u to O_{k-1};
deg+(u) <- deg(u)").

Three tie-breaking heuristics decide which removable vertex goes next:

* ``"small"`` — smallest remaining degree first.  This is the canonical
  Batagelj–Zaversnik order and the heuristic the paper recommends, because
  vertices with small ``deg+`` placed early are less likely to enter
  Case-1 of ``OrderInsert`` later (fewer candidates, smaller ``V+``).
* ``"large"`` — largest remaining degree below ``k`` first.
* ``"random"`` — uniformly random removable vertex.

Figure 9 of the paper compares the three; :mod:`repro.bench.experiments`
reproduces that comparison.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Hashable, Mapping, Optional

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
    return korder_decomposition(graph, policy="small").core


def compute_mcd(
    graph: DynamicGraph, core: Mapping[Vertex, int]
) -> dict[Vertex, int]:
    """Max-core degree of every vertex: neighbors with ``core >= core(v)``.

    The traversal hierarchy's ``r_1`` and the order family's ``mcd``.
    """
    return {
        v: sum(1 for w in nbrs if core[w] >= core[v])
        for v, nbrs in graph.adj.items()
    }


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
    if policy == "small":
        return _peel_small(graph)
    return _peel_staged(graph, policy, random.Random(seed))


def _peel_small(graph: DynamicGraph) -> KOrderDecomposition:
    """Always remove a globally minimum-degree vertex.

    With this policy the core number of a vertex is the running maximum of
    removal-time degrees, which saves the explicit ``k`` loop and keeps the
    whole peel ``O(m + n)`` (amortized bucket scans).
    """
    result = KOrderDecomposition()
    core, deg_plus, order = result.core, result.deg_plus, result.order
    adj = graph.adj
    buckets = DegreeBuckets({v: len(nbrs) for v, nbrs in adj.items()})
    k = 0
    for vertex, degree in buckets.peel_min(adj):
        if degree > k:
            k = degree
        core[vertex] = k
        deg_plus[vertex] = degree
        order.append(vertex)
    return result


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
