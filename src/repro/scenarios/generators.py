"""Parameterized scenario generators: deterministic, seeded update streams.

Each generator returns a :class:`~repro.scenarios.base.Scenario` — a base
graph plus strictly time-ordered :class:`~repro.engine.batch.Batch` ticks
— and is **byte-reproducible**: the same ``(name, seed, params)`` always
produces the identical stream, which is what lets a recorded trace
(:mod:`repro.scenarios.trace`) be verified against its header.

The families target the engines' distinct stress axes:

``burst``
    A quiet background trickle punctuated by dense arrival bursts inside
    a small vertex pocket — the flash-sale / breaking-news shape that
    batched pipelines must absorb without per-edge pricing.
``sliding-window``
    Steady arrivals with expiry after a fixed window — the monitor's
    deployment shape (every tick mixes removals of the expiring cohort
    with fresh inserts).
``flash-crowd``
    A power-law core where waves of new vertices pile onto a celebrity
    and each other, dwell, then dissolve — large core promotions
    followed by symmetric demotions.
``relabel-storm``
    Same-level chain insertions clustered at a few anchors of a long
    path: every new edge lands in the ``K=1`` order block at the same
    position, the adversarial pattern for tag-based order-maintenance
    labels (Bender relabel cascades).
``shard-merge-storm``
    Disjoint clique pockets repeatedly bridged into one component and
    severed again — component bridge/sever cycles through the k-order:
    each cycle's bridge ring lands between same-level vertices of
    different pockets, and the whole ring leaves again as one removal
    run.  (The name is historical; recorded traces carry it.)
``mixed``
    The Fig. 12-style interleaved insert/remove mix
    (:func:`interleaved_plan`, which the Fig. 12 experiment uses too).
"""

from __future__ import annotations

import inspect
import random
from typing import Callable, Hashable, Sequence

from repro.errors import ScenarioError, WorkloadError
from repro.graphs import generators as graph_generators
from repro.scenarios.base import Scenario, ScenarioBuilder

Vertex = Hashable
Edge = tuple[Vertex, Vertex]

#: Multiplier keeping integer size parameters proportional under ``scale``.
_MIN_SIZE = 8


def _rng(seed: int, salt: int) -> random.Random:
    """A deterministic stream per (seed, generator) — integer-seeded so
    reproducibility never depends on string hashing."""
    return random.Random((int(seed) & 0xFFFFFFFF) * 1_000_003 + salt)


def _scaled(base: int, scale: float, minimum: int = _MIN_SIZE) -> int:
    if scale <= 0:
        raise ScenarioError(f"scale must be positive, got {scale}")
    return max(minimum, int(base * scale))


def _pick_new_edge(rng: random.Random, n: int, builder: ScenarioBuilder,
                   tries: int = 32) -> bool:
    """Insert one random absent edge among vertices ``0..n-1``; bounded
    retries keep generation deterministic even near saturation."""
    for _ in range(tries):
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u != v and builder.insert(u, v):
            return True
    return False


# ----------------------------------------------------------------------
# Families
# ----------------------------------------------------------------------

def burst_arrivals(
    seed: int = 0,
    *,
    scale: float = 1.0,
    ticks: int = 32,
    trickle: int = 4,
    burst_every: int = 8,
    burst_size: int = 48,
    pocket: int = 16,
) -> Scenario:
    """Background trickle with periodic dense bursts in a small pocket.

    Every ``burst_every``-th tick lands ``burst_size`` extra edges among
    a ``pocket``-sized vertex subset (re-drawn per burst); the previous
    burst's pocket dissolves one tick before the next burst fires, so
    the stream carries symmetric removal pressure too.
    """
    params = dict(scale=scale, ticks=ticks, trickle=trickle,
                  burst_every=burst_every, burst_size=burst_size,
                  pocket=pocket)
    if ticks < 1 or trickle < 0 or burst_every < 1 or burst_size < 1:
        raise ScenarioError(f"invalid burst parameters: {params}")
    n = _scaled(160, scale, minimum=24)
    pocket = max(4, min(pocket, n // 2))
    base = graph_generators.chung_lu(n, 3.0, seed=seed)
    builder = ScenarioBuilder(
        "burst", seed=seed, params=params, base_edges=base
    )
    rng = _rng(seed, 11)
    last_burst: list[Edge] = []
    for t in range(ticks):
        if last_burst and (t + 1) % burst_every == 0:
            # Dissolve the previous pocket just before the next burst.
            for u, v in last_burst:
                builder.remove(u, v)
            last_burst = []
        for _ in range(trickle):
            _pick_new_edge(rng, n, builder)
        if t % burst_every == 0:
            members = rng.sample(range(n), pocket)
            burst: list[Edge] = []
            guard = 0
            while len(burst) < burst_size and guard < 20 * burst_size:
                guard += 1
                u = members[rng.randrange(pocket)]
                v = members[rng.randrange(pocket)]
                if u != v and builder.insert(u, v):
                    burst.append((u, v))
            last_burst = burst
        builder.tick(float(t))
    return builder.build()


def sliding_window_churn(
    seed: int = 0,
    *,
    scale: float = 1.0,
    ticks: int = 48,
    arrivals: int = 6,
    window: int = 8,
) -> Scenario:
    """Steady arrivals that expire ``window`` ticks later.

    Each tick's batch removes the cohort that arrived ``window`` ticks
    ago, then inserts ``arrivals`` fresh random edges — the sliding-
    window monitor's workload as one mixed batch per tick.
    """
    params = dict(scale=scale, ticks=ticks, arrivals=arrivals, window=window)
    if ticks < 1 or arrivals < 1 or window < 1:
        raise ScenarioError(f"invalid sliding-window parameters: {params}")
    n = _scaled(120, scale, minimum=16)
    builder = ScenarioBuilder("sliding-window", seed=seed, params=params)
    rng = _rng(seed, 23)
    cohorts: list[list[Edge]] = []
    for t in range(ticks):
        if t >= window:
            for u, v in cohorts[t - window]:
                builder.remove(u, v)
        cohort: list[Edge] = []
        guard = 0
        while len(cohort) < arrivals and guard < 20 * arrivals:
            guard += 1
            u = rng.randrange(n)
            v = rng.randrange(n)
            if u != v and builder.insert(u, v):
                cohort.append((u, v))
        cohorts.append(cohort)
        builder.tick(float(t))
    return builder.build()


def flash_crowd(
    seed: int = 0,
    *,
    scale: float = 1.0,
    waves: int = 3,
    crowd: int = 18,
    links: int = 3,
    dwell: int = 2,
) -> Scenario:
    """Waves of new vertices piling onto a power-law core's celebrity.

    Each wave arrives over two ticks (every member links to the current
    celebrity and to ``links`` earlier members), dwells for ``dwell``
    ticks of light background traffic, then dissolves over two ticks —
    big core promotions followed by the symmetric demotions.
    """
    params = dict(scale=scale, waves=waves, crowd=crowd, links=links,
                  dwell=dwell)
    if waves < 1 or crowd < 2 or links < 0 or dwell < 0:
        raise ScenarioError(f"invalid flash-crowd parameters: {params}")
    n = _scaled(140, scale, minimum=30)
    base = graph_generators.powerlaw_cluster(
        n, m_attach=3, triangle_prob=0.5, seed=seed
    )
    degree: dict[int, int] = {}
    for u, v in base:
        degree[u] = degree.get(u, 0) + 1
        degree[v] = degree.get(v, 0) + 1
    celebrities = sorted(degree, key=lambda v: (-degree[v], v))[:waves]
    builder = ScenarioBuilder(
        "flash-crowd", seed=seed, params=params, base_edges=base
    )
    rng = _rng(seed, 37)
    t = 0.0

    def next_tick() -> float:
        nonlocal t
        builder.tick(t)
        t += 1.0
        return t

    fresh = n
    for wave in range(waves):
        celebrity = celebrities[wave % len(celebrities)]
        members: list[int] = []
        wave_edges: list[Edge] = []
        for half in range(2):  # the crowd arrives over two ticks
            for _ in range(crowd // 2 + (crowd % 2 if half else 0)):
                member = fresh
                fresh += 1
                if builder.insert(member, celebrity):
                    wave_edges.append((member, celebrity))
                peers = members[-links:] if links else []
                for peer in peers:
                    if builder.insert(member, peer):
                        wave_edges.append((member, peer))
                members.append(member)
            next_tick()
        for _ in range(dwell):  # light background while the crowd dwells
            _pick_new_edge(rng, n, builder)
            _pick_new_edge(rng, n, builder)
            next_tick()
        half_point = len(wave_edges) // 2  # dissolve over two ticks
        for u, v in wave_edges[:half_point]:
            builder.remove(u, v)
        next_tick()
        for u, v in wave_edges[half_point:]:
            builder.remove(u, v)
        next_tick()
    return builder.build()


def relabel_storm(
    seed: int = 0,
    *,
    scale: float = 1.0,
    ticks: int = 24,
    chain: int = 24,
    anchors: int = 4,
) -> Scenario:
    """Same-level chain insertions clustered at a few path anchors.

    The base graph is a long path (every vertex at core 1).  Each tick
    grows a ``chain``-long pendant chain from one anchor: every new
    vertex lands in the same ``K=1`` order block directly after its
    predecessor — the pattern that concentrates order-list insertions
    at one label range and provokes range-relabel storms.  Chains are
    retired two visits later, so anchors churn instead of only growing.
    """
    params = dict(scale=scale, ticks=ticks, chain=chain, anchors=anchors)
    if ticks < 1 or chain < 1 or anchors < 1:
        raise ScenarioError(f"invalid relabel-storm parameters: {params}")
    path_len = _scaled(240, scale, minimum=32)
    base = [(i, i + 1) for i in range(path_len - 1)]
    anchors = min(anchors, path_len)
    anchor_at = [
        (i * path_len) // anchors for i in range(anchors)
    ]
    builder = ScenarioBuilder(
        "relabel-storm", seed=seed, params=params, base_edges=base
    )
    fresh = path_len
    history: dict[int, list[list[Edge]]] = {a: [] for a in anchor_at}
    for t in range(ticks):
        anchor = anchor_at[t % anchors]
        grown = history[anchor]
        if len(grown) >= 2:  # retire the chain grown two visits ago
            for u, v in grown.pop(0):
                builder.remove(u, v)
        links: list[Edge] = []
        previous = anchor
        for _ in range(chain):
            builder.insert(previous, fresh)
            links.append((previous, fresh))
            previous = fresh
            fresh += 1
        grown.append(links)
        builder.tick(float(t))
    return builder.build()


def shard_merge_storm(
    seed: int = 0,
    *,
    scale: float = 1.0,
    cycles: int = 6,
    pockets: int = 6,
    pocket_size: int = 6,
) -> Scenario:
    """Disjoint clique pockets repeatedly bridged and severed.

    The base graph is ``pockets`` disjoint cliques — one connected
    component each.  Every cycle inserts a ring of bridges joining all
    pockets into one component, and the next tick removes them all,
    severing the pockets again; bridge endpoints rotate per cycle.  The
    stress is on the k-order: the bridges join vertices of one core
    level across pockets, so insertion scans and the removal run's
    joint cascade cross component boundaries every cycle.
    """
    params = dict(scale=scale, cycles=cycles, pockets=pockets,
                  pocket_size=pocket_size)
    if cycles < 1 or pockets < 2 or pocket_size < 2:
        raise ScenarioError(f"invalid shard-merge-storm parameters: {params}")
    pockets = max(2, int(pockets * scale)) if scale != 1.0 else pockets
    base: list[Edge] = []
    members: list[list[int]] = []
    vid = 0
    for _ in range(pockets):
        group = list(range(vid, vid + pocket_size))
        vid += pocket_size
        members.append(group)
        for i, u in enumerate(group):
            for v in group[i + 1:]:
                base.append((u, v))
    builder = ScenarioBuilder(
        "shard-merge-storm", seed=seed, params=params, base_edges=base
    )
    rng = _rng(seed, 53)
    t = 0.0
    for _ in range(cycles):
        bridges: list[Edge] = []
        for i in range(pockets):
            a = members[i][rng.randrange(pocket_size)]
            b = members[(i + 1) % pockets][rng.randrange(pocket_size)]
            if builder.insert(a, b):
                bridges.append((a, b))
        builder.tick(t)
        t += 1.0
        for a, b in bridges:
            builder.remove(a, b)
        builder.tick(t)
        t += 1.0
    return builder.build()


# ----------------------------------------------------------------------
# The interleaved mix (shared with repro.bench)
# ----------------------------------------------------------------------

def interleaved_plan(
    present_pool: Sequence[Edge],
    insertions: Sequence[Edge],
    p: float,
    seed: int = 0,
) -> list[tuple[str, Edge]]:
    """Fig. 12's mixed plan: after each insertion, with probability ``p``
    remove one random edge that is currently present.

    ``present_pool`` seeds the removable set; inserted edges join it.
    Returns an ordered op list of ``("insert"|"remove", edge)`` pairs.
    This is the one source of truth for the update-mix semantics: the
    Fig. 12 experiment (:func:`repro.bench.experiments.fig12`),
    :func:`repro.bench.workloads.mixed_batch_workload` and the ``mixed``
    scenario all call it.
    """
    if not 0.0 <= p <= 1.0:
        raise WorkloadError(f"removal probability {p} outside [0, 1]")
    rng = random.Random(seed)
    removable = list(present_pool)
    plan: list[tuple[str, Edge]] = []
    for edge in insertions:
        plan.append(("insert", edge))
        removable.append(edge)
        if removable and rng.random() < p:
            index = rng.randrange(len(removable))
            victim = removable[index]
            removable[index] = removable[-1]
            removable.pop()
            plan.append(("remove", victim))
    return plan


def mixed_stream(
    seed: int = 0,
    *,
    scale: float = 1.0,
    tick_ops: int = 20,
    p: float = 0.2,
) -> Scenario:
    """The interleaved insert/remove mix chunked into fixed-size ticks.

    A uniform random base graph, a disjoint pool of insertions, and the
    :func:`interleaved_plan` mix at removal probability ``p``; every
    ``tick_ops`` consecutive ops form one tick.
    """
    params = dict(scale=scale, tick_ops=tick_ops, p=p)
    if tick_ops < 1:
        raise ScenarioError(f"invalid mixed parameters: {params}")
    n = _scaled(150, scale, minimum=24)
    edges = graph_generators.erdos_renyi_gnm(
        n, max(n, int(2.2 * n)), seed=seed
    )
    split = (len(edges) * 3) // 5
    base, insertions = edges[:split], edges[split:]
    plan = interleaved_plan(base, insertions, p, seed=seed)
    builder = ScenarioBuilder(
        "mixed", seed=seed, params=params, base_edges=base
    )
    t = 0.0
    staged = 0
    for kind, (u, v) in plan:
        if kind == "insert":
            builder.insert(u, v)
        else:
            builder.remove(u, v)
        staged += 1
        if staged == tick_ops:
            builder.tick(t)
            t += 1.0
            staged = 0
    return builder.build()


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------

#: Scenario family name -> generator.
SCENARIOS: dict[str, Callable[..., Scenario]] = {
    "burst": burst_arrivals,
    "sliding-window": sliding_window_churn,
    "flash-crowd": flash_crowd,
    "relabel-storm": relabel_storm,
    "shard-merge-storm": shard_merge_storm,
    "mixed": mixed_stream,
}


def available_scenarios() -> list[str]:
    """Registered family names, sorted."""
    return sorted(SCENARIOS)


def scenario_params(name: str) -> tuple[str, ...]:
    """The keyword parameters a family accepts (besides ``seed``)."""
    factory = SCENARIOS.get(name)
    if factory is None:
        raise ScenarioError(
            f"unknown scenario {name!r}; known: "
            f"{', '.join(available_scenarios())}"
        )
    signature = inspect.signature(factory)
    return tuple(
        p.name for p in signature.parameters.values()
        if p.kind is inspect.Parameter.KEYWORD_ONLY
    )


def make_scenario(name: str, seed: int = 0, **params) -> Scenario:
    """Build a registered scenario family by name.

    Unknown names and stray parameters raise
    :class:`~repro.errors.ScenarioError` naming what is accepted — the
    same no-option-swallowing contract as
    :func:`repro.engine.registry.make_engine`.
    """
    accepted = scenario_params(name)
    stray = tuple(k for k in params if k not in accepted)
    if stray:
        noun = "parameter" if len(stray) == 1 else "parameters"
        raise ScenarioError(
            f"scenario {name!r} got unknown {noun} "
            f"{', '.join(repr(s) for s in stray)}; accepted: "
            f"{', '.join(accepted)}"
        )
    return SCENARIOS[name](seed=seed, **params)
