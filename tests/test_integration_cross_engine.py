"""Integration tests: all engines agree on realistic mixed workloads.

The strongest correctness statement the library can make: on every
generator family, under long interleaved insert/remove streams, the
order-based engine, the traversal engine (several hop counts) and naive
recomputation produce identical core numbers at every step — with the
order engine's internal audits enabled.
"""

import random

import pytest

from repro.core.decomposition import core_numbers
from repro.core.maintainer import OrderedCoreMaintainer
from repro.core.simplified import SimplifiedCoreMaintainer
from repro.graphs import generators
from repro.graphs.datasets import load_dataset
from repro.graphs.undirected import DynamicGraph
from repro.naive.maintainer import NaiveCoreMaintainer
from repro.traversal.maintainer import TraversalCoreMaintainer

FAMILIES = {
    "social": lambda: generators.powerlaw_cluster(80, 4, 0.5, seed=1),
    "web": lambda: generators.copying_model(80, 4, 0.6, seed=2),
    "road": lambda: generators.road_grid(9, 9, seed=3),
    "collab": lambda: generators.affiliation_collaboration(70, 50, seed=4),
    "citation": lambda: generators.layered_citation(80, 2.5, seed=5),
    "uniform": lambda: generators.erdos_renyi_gnm(70, 160, seed=6),
}


def mixed_stream(edges, steps, seed):
    """Deterministic interleaved insert/remove op stream over an edge pool."""
    rng = random.Random(seed)
    vertices = sorted({u for u, _ in edges} | {v for _, v in edges})
    split = int(len(edges) * 0.7)
    present = set(edges[:split])
    absent = list(edges[split:])
    ops = []
    for _ in range(steps):
        do_insert = rng.random() < 0.55
        if do_insert:
            if absent and rng.random() < 0.7:
                e = absent.pop(rng.randrange(len(absent)))
            else:
                a, b = rng.sample(vertices, 2)
                e = (a, b) if a < b else (b, a)
                if e in present:
                    continue
            ops.append(("insert", e))
            present.add(e)
        elif present:
            e = rng.choice(sorted(present))
            present.discard(e)
            absent.append(e)
            ops.append(("remove", e))
    return edges[:split], ops


@pytest.mark.parametrize("family", sorted(FAMILIES), ids=sorted(FAMILIES))
def test_engines_agree_on_family(family):
    edges = FAMILIES[family]()
    base, ops = mixed_stream(edges, steps=120, seed=42)
    vertices = {u for u, _ in edges} | {v for _, v in edges}

    def graph():
        return DynamicGraph(base, vertices=vertices)

    engines = [
        OrderedCoreMaintainer(graph(), audit=True),
        SimplifiedCoreMaintainer(graph(), audit=True),
        TraversalCoreMaintainer(graph(), h=2, audit=True),
        TraversalCoreMaintainer(graph(), h=4),
        NaiveCoreMaintainer(graph()),
    ]
    for step, (kind, e) in enumerate(ops):
        reference = None
        for engine in engines:
            op = engine.insert_edge if kind == "insert" else engine.remove_edge
            op(*e)
            cores = engine.core_numbers()
            if reference is None:
                reference = cores
            else:
                assert cores == reference, (
                    f"{engine.name} diverged at step {step} ({kind} {e})"
                )


def test_engines_agree_on_dataset_workload():
    """End-to-end: replay a real (stand-in) dataset workload."""
    from repro.bench.workloads import make_workload

    data = load_dataset("dblp", scale=0.12, seed=8)
    workload = make_workload(data, 80, seed=8)
    order = OrderedCoreMaintainer(workload.base_graph(), audit=True)
    trav = TraversalCoreMaintainer(workload.base_graph(), h=3)
    for e in workload.update_edges:
        order.insert_edge(*e)
        trav.insert_edge(*e)
        assert order.core_numbers() == trav.core_numbers()
    for e in reversed(workload.update_edges):
        order.remove_edge(*e)
        trav.remove_edge(*e)
    final = core_numbers(workload.base_graph())
    assert order.core_numbers() == final
    assert trav.core_numbers() == final


@pytest.mark.parametrize("policy", ["small", "large", "random"])
def test_all_korder_policies_maintainable(policy):
    """The maintained order stays valid regardless of the generation
    heuristic (the heuristic only affects performance, never safety)."""
    edges = generators.powerlaw_cluster(60, 3, 0.4, seed=9)
    base, ops = mixed_stream(edges, steps=80, seed=9)
    vertices = {u for u, _ in edges} | {v for _, v in edges}
    engine = OrderedCoreMaintainer(
        DynamicGraph(base, vertices=vertices),
        policy=policy,
        seed=1,
        audit=True,
    )
    shadow = DynamicGraph(base, vertices=vertices)
    for kind, e in ops:
        if kind == "insert":
            engine.insert_edge(*e)
            shadow.add_edge(*e)
        else:
            engine.remove_edge(*e)
            shadow.remove_edge(*e)
    assert engine.core_numbers() == core_numbers(shadow)


def test_vertex_churn_through_engines():
    """Vertex insertion/removal simulated as edge sequences (Section I)."""
    base = generators.erdos_renyi_gnm(40, 80, seed=10)
    vertices = {u for u, _ in base} | {v for _, v in base}
    order = OrderedCoreMaintainer(
        DynamicGraph(base, vertices=vertices), audit=True
    )
    naive = NaiveCoreMaintainer(DynamicGraph(base, vertices=vertices))
    rng = random.Random(10)
    alive = sorted(vertices)
    next_vertex = 1000
    for _ in range(25):
        if rng.random() < 0.5 and len(alive) > 5:
            victim = alive.pop(rng.randrange(len(alive)))
            order.remove_vertex(victim)
            naive.remove_vertex(victim)
        else:
            order.add_vertex(next_vertex)
            naive.add_vertex(next_vertex)
            for peer in rng.sample(alive, min(3, len(alive))):
                order.insert_edge(next_vertex, peer)
                naive.insert_edge(next_vertex, peer)
            alive.append(next_vertex)
            next_vertex += 1
        assert order.core_numbers() == naive.core_numbers()


def test_long_stream_order_stability():
    """After thousands of updates the maintained order is still a valid
    k-order (the paper's stability concern, Fig. 12)."""
    edges = generators.barabasi_albert(120, 3, seed=11)
    split = len(edges) // 2
    engine = OrderedCoreMaintainer(
        DynamicGraph(
            edges[:split],
            vertices={u for u, _ in edges} | {v for _, v in edges},
        ),
        seed=0,
    )
    rng = random.Random(11)
    present = list(edges[:split])
    pending = list(edges[split:])
    for _ in range(1200):
        if pending and rng.random() < 0.6:
            e = pending.pop()
            engine.insert_edge(*e)
            present.append(e)
        else:
            e = present.pop(rng.randrange(len(present)))
            engine.remove_edge(*e)
            pending.append(e)
    engine.check()  # full audit: Lemma 5.1 + deg+ + mcd consistency
    assert engine.core_numbers() == core_numbers(engine.graph)
