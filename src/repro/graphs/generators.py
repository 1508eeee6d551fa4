"""Synthetic graph generators used as stand-ins for the paper's datasets.

The paper evaluates on 11 real graphs downloaded from SNAP and Konect.
Those are not available offline, so :mod:`repro.graphs.datasets` maps each
one to a generator below whose output matches the *structural profile* that
drives the algorithms' behaviour: degree distribution, clustering (which
controls how large subcores/purecores get), and coreness profile.

Every generator:

* returns a ``list[(u, v)]`` of unique undirected edges with integer
  vertices ``0..n-1``, in **generation order** (which doubles as the
  timestamp order for temporal datasets);
* is deterministic given its ``seed``;
* never emits self-loops or duplicate edges.
"""

from __future__ import annotations

import bisect
import random
from typing import Optional

Edge = tuple[int, int]


def _norm(u: int, v: int) -> Edge:
    return (u, v) if u < v else (v, u)


def erdos_renyi_gnm(n: int, m: int, seed: Optional[int] = None) -> list[Edge]:
    """Uniform random graph with ``n`` vertices and ``m`` distinct edges."""
    max_edges = n * (n - 1) // 2
    if m > max_edges:
        raise ValueError(f"cannot place {m} edges among {n} vertices")
    rng = random.Random(seed)
    chosen: set[Edge] = set()
    edges: list[Edge] = []
    while len(edges) < m:
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u == v:
            continue
        e = _norm(u, v)
        if e in chosen:
            continue
        chosen.add(e)
        edges.append(e)
    return edges


def barabasi_albert(n: int, m_attach: int, seed: Optional[int] = None) -> list[Edge]:
    """Preferential attachment (scale-free social-network profile).

    Each arriving vertex attaches to ``m_attach`` distinct existing vertices
    chosen proportionally to their current degree.
    """
    if n <= m_attach:
        raise ValueError("n must exceed m_attach")
    rng = random.Random(seed)
    edges: list[Edge] = []
    # Seed clique-ish nucleus: a path over the first m_attach + 1 vertices.
    repeated: list[int] = []  # one entry per degree unit
    for v in range(1, m_attach + 1):
        edges.append((v - 1, v))
        repeated.extend((v - 1, v))
    for v in range(m_attach + 1, n):
        targets: set[int] = set()
        while len(targets) < m_attach:
            targets.add(repeated[rng.randrange(len(repeated))])
        for t in targets:
            edges.append(_norm(t, v))
            repeated.append(t)
            repeated.append(v)
    return edges


def powerlaw_cluster(
    n: int,
    m_attach: int,
    triangle_prob: float,
    seed: Optional[int] = None,
) -> list[Edge]:
    """Holme–Kim model: preferential attachment plus triangle closure.

    Like :func:`barabasi_albert` but after each preferential link, with
    probability ``triangle_prob`` the next link closes a triangle by
    attaching to a random neighbor of the previous target.  High clustering
    plus a power-law tail — the profile of dense social networks (Facebook,
    Orkut) whose purecores the paper shows to be large.
    """
    if n <= m_attach:
        raise ValueError("n must exceed m_attach")
    rng = random.Random(seed)
    edges: list[Edge] = []
    adj: dict[int, list[int]] = {v: [] for v in range(n)}
    repeated: list[int] = []

    def connect(u: int, v: int) -> bool:
        if u == v or v in adj[u]:
            return False
        edges.append(_norm(u, v))
        adj[u].append(v)
        adj[v].append(u)
        repeated.append(u)
        repeated.append(v)
        return True

    for v in range(1, m_attach + 1):
        connect(v - 1, v)
    for v in range(m_attach + 1, n):
        made = 0
        last_target: Optional[int] = None
        guard = 0
        while made < m_attach and guard < 50 * m_attach:
            guard += 1
            if (
                last_target is not None
                and adj[last_target]
                and rng.random() < triangle_prob
            ):
                candidate = adj[last_target][rng.randrange(len(adj[last_target]))]
            else:
                candidate = repeated[rng.randrange(len(repeated))]
            if connect(v, candidate):
                made += 1
                last_target = candidate
    return edges


def chung_lu(
    n: int,
    avg_deg: float,
    exponent: float = 2.3,
    seed: Optional[int] = None,
) -> list[Edge]:
    """Expected-degree (Chung–Lu) power-law graph.

    Vertex ``i`` gets weight ``(i + i0) ** (-1 / (exponent - 1))``; edges are
    sampled with endpoint probability proportional to weight until
    ``round(n * avg_deg / 2)`` distinct edges exist.  Matches sparse
    heavy-tailed graphs such as Youtube and Gowalla.
    """
    if exponent <= 2.0:
        raise ValueError("exponent must exceed 2 for a proper Chung-Lu graph")
    rng = random.Random(seed)
    target_m = max(1, round(n * avg_deg / 2.0))
    alpha = 1.0 / (exponent - 1.0)
    weights = [(i + 1.0) ** (-alpha) for i in range(n)]
    cumulative: list[float] = []
    acc = 0.0
    for w in weights:
        acc += w
        cumulative.append(acc)
    total = cumulative[-1]

    def draw() -> int:
        return bisect.bisect_left(cumulative, rng.random() * total)

    chosen: set[Edge] = set()
    edges: list[Edge] = []
    attempts = 0
    limit = 200 * target_m
    while len(edges) < target_m and attempts < limit:
        attempts += 1
        u, v = draw(), draw()
        if u == v:
            continue
        e = _norm(u, v)
        if e in chosen:
            continue
        chosen.add(e)
        edges.append(e)
    return edges


def copying_model(
    n: int,
    out_degree: int,
    copy_prob: float,
    seed: Optional[int] = None,
) -> list[Edge]:
    """Web-graph copying model (Kumar et al. profile).

    Each new vertex picks a random prototype; each of its ``out_degree``
    links copies a random neighbor of the prototype with probability
    ``copy_prob`` and otherwise links to a uniform existing vertex.
    Produces the dense nuclei and high max-coreness of web crawls
    (BerkStan, Google).
    """
    rng = random.Random(seed)
    edges: list[Edge] = []
    adj: dict[int, list[int]] = {v: [] for v in range(n)}

    def connect(u: int, v: int) -> bool:
        if u == v or v in adj[u]:
            return False
        edges.append(_norm(u, v))
        adj[u].append(v)
        adj[v].append(u)
        return True

    nucleus = min(out_degree + 1, n)
    for u in range(nucleus):
        for v in range(u + 1, nucleus):
            connect(u, v)
    for v in range(nucleus, n):
        prototype = rng.randrange(v)
        made = 0
        guard = 0
        while made < out_degree and guard < 50 * out_degree:
            guard += 1
            if adj[prototype] and rng.random() < copy_prob:
                candidate = adj[prototype][rng.randrange(len(adj[prototype]))]
            else:
                candidate = rng.randrange(v)
            if connect(v, candidate):
                made += 1
    return edges


def affiliation_collaboration(
    n: int,
    n_events: int,
    max_event_size: int = 6,
    activity_exponent: float = 2.1,
    seed: Optional[int] = None,
) -> list[Edge]:
    """Collaboration network built from co-authorship "events" (DBLP-like).

    ``n_events`` papers are generated in timestamp order; each paper selects
    2..``max_event_size`` authors with power-law activity weights and adds a
    clique among them.  Cliques make subcores chunky, mirroring DBLP's
    coreness profile (max k = 118 comes from one huge author list).
    """
    rng = random.Random(seed)
    alpha = 1.0 / (activity_exponent - 1.0)
    weights = [(i + 1.0) ** (-alpha) for i in range(n)]
    cumulative: list[float] = []
    acc = 0.0
    for w in weights:
        acc += w
        cumulative.append(acc)
    total = cumulative[-1]

    def draw_author() -> int:
        return bisect.bisect_left(cumulative, rng.random() * total)

    chosen: set[Edge] = set()
    edges: list[Edge] = []
    sizes = list(range(2, max_event_size + 1))
    size_weights = [1.0 / (s * s) for s in sizes]  # small papers dominate
    for _ in range(n_events):
        size = rng.choices(sizes, weights=size_weights)[0]
        authors: set[int] = set()
        guard = 0
        while len(authors) < size and guard < 50 * size:
            guard += 1
            authors.add(draw_author())
        team = sorted(authors)
        for i, u in enumerate(team):
            for v in team[i + 1 :]:
                e = _norm(u, v)
                if e not in chosen:
                    chosen.add(e)
                    edges.append(e)
    return edges


def layered_citation(
    n: int,
    refs_mean: float,
    recency_bias: float = 0.05,
    seed: Optional[int] = None,
) -> list[Edge]:
    """Citation-network profile (Patents-like).

    Vertices arrive in order; vertex ``v`` cites ``Poisson(refs_mean)``
    earlier vertices, drawn from a mix of a recency-biased window and
    uniform history.  Citation graphs have moderate degree, weak clustering
    and mid-sized cores — the regime where the traversal algorithm's
    purecores explode (Fig. 5a of the paper).
    """
    rng = random.Random(seed)
    chosen: set[Edge] = set()
    edges: list[Edge] = []
    window = max(2, int(n * recency_bias))
    for v in range(1, n):
        # Poisson draw via Knuth's method (refs_mean is small).
        refs = 0
        threshold = 2.718281828459045 ** (-refs_mean)
        p = rng.random()
        while p > threshold:
            refs += 1
            p *= rng.random()
        refs = max(1, refs)
        guard = 0
        made = 0
        while made < refs and guard < 50 * refs:
            guard += 1
            if rng.random() < 0.5 and v > 1:
                lo = max(0, v - window)
                u = rng.randrange(lo, v)
            else:
                u = rng.randrange(v)
            e = _norm(u, v)
            if e not in chosen:
                chosen.add(e)
                edges.append(e)
                made += 1
    return edges


def road_grid(
    rows: int,
    cols: int,
    keep_prob: float = 0.72,
    diagonal_prob: float = 0.05,
    dense_cell_prob: float = 0.01,
    seed: Optional[int] = None,
) -> list[Edge]:
    """Road-network profile (the paper's CA dataset: avg deg 2.8, max k 3).

    A ``rows x cols`` lattice where each lattice edge survives with
    ``keep_prob`` (roads are sparser than a full grid), occasional
    diagonals add triangles, and rare fully-braced cells (all four sides
    plus both diagonals — interchanges) form 4-cliques, matching CA's max
    coreness of 3.
    """
    rng = random.Random(seed)
    chosen: set[Edge] = set()
    edges: list[Edge] = []

    def vid(r: int, c: int) -> int:
        return r * cols + c

    def connect(a: int, b: int) -> None:
        e = _norm(a, b)
        if e not in chosen:
            chosen.add(e)
            edges.append(e)

    for r in range(rows):
        for c in range(cols):
            v = vid(r, c)
            if c + 1 < cols and rng.random() < keep_prob:
                connect(v, vid(r, c + 1))
            if r + 1 < rows and rng.random() < keep_prob:
                connect(v, vid(r + 1, c))
            if (
                r + 1 < rows
                and c + 1 < cols
                and rng.random() < diagonal_prob
            ):
                connect(v, vid(r + 1, c + 1))
            if (
                r + 1 < rows
                and c + 1 < cols
                and rng.random() < dense_cell_prob
            ):
                corners = (v, vid(r, c + 1), vid(r + 1, c), vid(r + 1, c + 1))
                for i, a in enumerate(corners):
                    for b in corners[i + 1 :]:
                        connect(a, b)
    return edges
