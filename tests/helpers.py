"""Shared non-fixture test helpers, imported explicitly by test modules.

These used to live in ``tests/conftest.py`` and be imported as
``from conftest import …`` — but ``conftest`` is not a safe import name:
pytest puts every conftest-bearing rootdir subdirectory on ``sys.path``,
so ``benchmarks/conftest.py`` could shadow the tests' one at collection
time.  Helpers now live in this plainly-named module; ``conftest.py``
keeps only the pytest fixtures built on top of them.
"""

from __future__ import annotations

import random

from repro.graphs.undirected import DynamicGraph

# ----------------------------------------------------------------------
# The paper's Fig. 3 graph.
#
# * u-part: u_0 .. u_{2000}; edges (u_0,u_1) and (u_i, u_{i+2}) — two
#   interleaved strands anchored at u_0; every u_i has core number 1.
# * v-part: v_1..v_5 form the unique 2-subcore (a 5-cycle here), with
#   v_5 - u_0 attaching the chain; v_6..v_9 and v_10..v_13 form two
#   3-subcores (K4s), v_7 - v_2 linking one of them to the 2-subcore.
#
# Vertex ids: v_i -> i, u_i -> U0 + i.
# ----------------------------------------------------------------------

U0 = 10_000


def u(i: int) -> int:
    """Vertex id of the paper's u_i."""
    return U0 + i


def fig3_edges(tail: int = 2000) -> list[tuple[int, int]]:
    """Edge list of the Fig. 3 graph with a configurable u-chain length."""
    edges = [(u(0), u(1))]
    edges += [(u(i), u(i + 2)) for i in range(tail - 1)]
    # 2-subcore: 5-cycle v1..v5.
    edges += [(i, i % 5 + 1) for i in range(1, 6)]
    edges.append((5, u(0)))  # v5 - u0
    edges.append((2, 7))  # v2 - v7 (Example 5.1: v2's neighbors are v1,v3,v7)
    # Two 3-subcores: K4 on v6..v9 and K4 on v10..v13.
    for block in ([6, 7, 8, 9], [10, 11, 12, 13]):
        edges += [
            (block[i], block[j])
            for i in range(4)
            for j in range(i + 1, 4)
        ]
    return edges


def random_gnm(n: int, m: int, seed: int) -> DynamicGraph:
    """Deterministic G(n, m) used across integration tests."""
    rng = random.Random(seed)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    rng.shuffle(pairs)
    return DynamicGraph(pairs[:m], vertices=range(n))


def cores_by_deletion(graph: DynamicGraph) -> dict:
    """Core numbers by repeated deletion, sharing no code with the peels.

    For each ``k`` from 1, strip vertices of degree below ``k`` until none
    is left; what survives is the ``k``-core, and a vertex's core number
    is the last ``k`` whose core holds it.
    """
    adj = {v: set(nbrs) for v, nbrs in graph.adj.items()}
    core = dict.fromkeys(adj, 0)
    k = 1
    while adj:
        low = [v for v, nbrs in adj.items() if len(nbrs) < k]
        while low:
            for v in low:
                for w in adj.pop(v):
                    adj[w].discard(v)
            low = [v for v, nbrs in adj.items() if len(nbrs) < k]
        for v in adj:
            core[v] = k
        k += 1
    return core


def mcd_by_scan(graph: DynamicGraph, core: dict) -> dict:
    """Max-core degrees by one neighbour scan per vertex: how many
    neighbours ``w`` of ``v`` have ``core[w] >= core[v]``."""
    return {
        v: len([w for w in graph.neighbors(v) if core[w] >= core[v]])
        for v in graph.vertices()
    }


def max_degree(graph: DynamicGraph) -> int:
    """Largest degree in ``graph`` (0 for an empty graph)."""
    return max(map(len, graph.adj.values()), default=0)


def connected_component(graph: DynamicGraph, start) -> set:
    """Vertices reachable from ``start`` (including it); ``KeyError``
    when ``start`` is not in ``graph``."""
    adj = graph.adj
    seen = {start}
    frontier = [start]
    while frontier:
        for w in adj[frontier.pop()]:
            if w not in seen:
                seen.add(w)
                frontier.append(w)
    return seen


def absent_edges(graph: DynamicGraph, n: int, count: int, seed: int):
    """``count`` distinct pairs over ``range(n)`` that are not edges of
    ``graph``, in a seeded random order."""
    rng = random.Random(seed)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)
             if not graph.has_edge(u, v)]
    rng.shuffle(pairs)
    return pairs[:count]


#: CRC-valid commit-log records with a missing or mistyped field, as
#: appended after receipt 1; every log reader must refuse each of them.
MALFORMED_COMMITS = {
    "no-receipt": {"kind": "commit", "ops": [["insert", 8, 9]]},
    "no-ops": {"kind": "commit", "receipt": 2},
    "string-receipt": {
        "kind": "commit", "receipt": "7", "ops": [["insert", 8, 9]],
    },
    "short-op": {"kind": "commit", "receipt": 2, "ops": [["insert", 1]]},
    "unknown-op-kind": {
        "kind": "commit", "receipt": 2, "ops": [["upsert", 1, 2]],
    },
    "unknown-kind": {"kind": "bogus"},
}


def v1_snapshot(engine) -> dict:
    """An order-family engine in the version-1 snapshot layout older
    builds wrote: the index itself (``order`` with aligned ``core`` /
    ``deg_plus`` / ``mcd``) beside ``edges``.  This build reads such a
    snapshot for its vertices and edges only."""
    order = engine.order()
    return {
        "version": 1,
        "engine": engine.name,
        "order": order,
        "core": [engine.core[v] for v in order],
        "deg_plus": [engine.korder.deg_plus[v] for v in order],
        "mcd": [engine.mcd[v] for v in order],
        "edges": sorted(
            [sorted((u, v), key=repr) for u, v in engine.graph.edges()],
            key=repr,
        ),
    }


def kept_adjacency(engine) -> dict | None:
    """An order-family engine's kept vertex ids mapped back to vertices
    (compare with ``engine.graph.adj``), or ``None`` when it keeps none."""
    ids = engine._ids
    if ids is None:
        return None
    vx = ids.vx
    assert ids.ids == {v: i for i, v in enumerate(vx)}
    assert all(len(set(nb)) == len(nb) for nb in ids.nb)
    return {vx[i]: {vx[j] for j in nb} for i, nb in enumerate(ids.nb)}
