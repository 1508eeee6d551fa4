"""Tests for bulk insertion, the k-order as a degeneracy ordering, and
the sliding-window monitor's streaming properties."""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.decomposition import core_numbers
from repro.core.maintainer import OrderedCoreMaintainer
from repro.engine.batch import Batch
from repro.engine.registry import make_engine
from repro.graphs.undirected import DynamicGraph
from repro.streaming import SlidingWindowCoreMonitor


def reverse_korder_coloring(graph, order):
    """Greedy colouring, last k-order vertex first.  Each vertex then
    meets only its later neighbours already coloured, so a k-order whose
    vertices have at most ``d`` later neighbours needs ``d + 1`` colours."""
    colors = {}
    for v in reversed(order):
        taken = {colors[w] for w in graph.neighbors(v) if w in colors}
        colors[v] = next(c for c in range(len(taken) + 1) if c not in taken)
    return colors


def assert_proper(graph, colors):
    assert set(colors) == set(graph.vertices())
    for a, b in graph.edges():
        assert colors[a] != colors[b]


class TestBulkInsert:
    def test_matches_sequential_engine(self):
        rng = random.Random(1)
        n = 30
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        rng.shuffle(pairs)
        base, batch = pairs[:60], pairs[60:220]
        bulk = OrderedCoreMaintainer(DynamicGraph(base, vertices=range(n)))
        seq = OrderedCoreMaintainer(DynamicGraph(base, vertices=range(n)))
        bulk_results = bulk.maintain_batch(Batch.inserts(batch)).results
        seq_results = [seq.insert_edge(*e) for e in batch]
        assert bulk.core_numbers() == seq.core_numbers()
        assert dict(bulk.mcd) == dict(seq.mcd)
        for a, b in zip(bulk_results, seq_results):
            assert set(a.changed) == set(b.changed)
            assert a.visited == b.visited

    def test_bulk_then_removals_work(self, triangle_graph):
        engine = OrderedCoreMaintainer(triangle_graph, audit=True)
        engine.maintain_batch(Batch.inserts([(3, 0), (3, 4), (4, 0)]))
        engine.remove_edge(3, 0)
        assert engine.core_numbers() == core_numbers(engine.graph)

    def test_bulk_registers_new_vertices(self):
        engine = OrderedCoreMaintainer(DynamicGraph(), audit=True)
        engine.maintain_batch(Batch.inserts([("a", "b"), ("b", "c"), ("c", "a")]))
        assert engine.core_of("a") == 2

    def test_bulk_audit_mode(self, small_random_graph):
        edges = list(small_random_graph.edges())
        for e in edges[:20]:
            small_random_graph.remove_edge(*e)
        engine = OrderedCoreMaintainer(small_random_graph, audit=True)
        engine.maintain_batch(Batch.inserts(edges[:20]))
        engine.check()


class TestDegeneracyOrder:
    def test_korder_bounds_later_neighbors_by_degeneracy(
        self, small_random_graph
    ):
        engine = OrderedCoreMaintainer(small_random_graph)
        order = engine.order()
        position = {v: i for i, v in enumerate(order)}
        d = engine.degeneracy()
        for v in small_random_graph.vertices():
            later = sum(
                1
                for w in small_random_graph.adj[v]
                if position[w] > position[v]
            )
            assert later <= d

    def test_reverse_korder_coloring_is_bounded(self, small_random_graph):
        engine = OrderedCoreMaintainer(small_random_graph)
        colors = reverse_korder_coloring(small_random_graph, engine.order())
        assert_proper(small_random_graph, colors)
        assert max(colors.values()) + 1 <= engine.degeneracy() + 1

    @pytest.mark.parametrize("name", ["order", "order-simplified"])
    def test_maintained_korder_stays_a_degeneracy_order(
        self, name, small_random_graph
    ):
        engine = make_engine(name, small_random_graph)
        rng = random.Random(2)
        vertices = sorted(small_random_graph.vertices())
        for _ in range(30):
            a, b = rng.sample(vertices, 2)
            if engine.graph.has_edge(a, b):
                engine.remove_edge(a, b)
            else:
                engine.insert_edge(a, b)
        colors = reverse_korder_coloring(engine.graph, engine.order())
        assert_proper(engine.graph, colors)
        assert max(colors.values()) <= engine.degeneracy()

    def test_clique_needs_exactly_its_size(self):
        k = 5
        clique = [(i, j) for i in range(k) for j in range(i + 1, k)]
        engine = OrderedCoreMaintainer(DynamicGraph(clique))
        colors = reverse_korder_coloring(engine.graph, engine.order())
        assert len(set(colors.values())) == k

    def test_complete_bipartite_stays_under_the_bound(self):
        bipartite = [(i, 10 + j) for i in range(4) for j in range(4)]
        engine = OrderedCoreMaintainer(DynamicGraph(bipartite))
        colors = reverse_korder_coloring(engine.graph, engine.order())
        assert_proper(engine.graph, colors)
        # K_{4,4} has degeneracy 4, so at most 5 colours.
        assert engine.degeneracy() == 4
        assert max(colors.values()) + 1 <= 5


class TestStreamingProperties:
    @given(
        st.lists(
            st.tuples(st.integers(0, 8), st.integers(0, 8), st.integers(0, 30))
            .filter(lambda e: e[0] != e[1]),
            max_size=25,
        )
    )
    @settings(
        max_examples=40,
        suppress_health_check=[HealthCheck.too_slow],
        deadline=None,
    )
    def test_window_always_matches_live_edge_set(self, raw_events):
        """At every instant, the monitor's cores equal a fresh
        decomposition of exactly the non-expired edges."""
        events = sorted(raw_events, key=lambda e: e[2])
        window = 7.0
        monitor = SlidingWindowCoreMonitor(window=window)
        expiry: dict = {}
        for u, v, t in events:
            monitor.observe(u, v, float(t))
            edge = (min(u, v), max(u, v))
            expiry[edge] = t + window
            live = sorted(e for e, exp in expiry.items() if exp > t)
            truth = core_numbers(DynamicGraph(live))
            for vertex, k in truth.items():
                assert monitor.core_of(vertex) == k
