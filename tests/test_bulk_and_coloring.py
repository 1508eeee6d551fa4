"""Tests for bulk insertion, the degeneracy order, and greedy coloring."""

import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.applications.coloring import (
    chromatic_upper_bound,
    greedy_coloring,
    greedy_coloring_in_order,
    verify_coloring,
)
from repro.core.decomposition import core_numbers
from repro.core.maintainer import OrderedCoreMaintainer
from repro.engine.batch import Batch
from repro.graphs.undirected import DynamicGraph
from repro.streaming import SlidingWindowCoreMonitor



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


class TestDegeneracyOrderAndColoring:
    def test_reverse_korder_is_degeneracy_order(self, small_random_graph):
        engine = OrderedCoreMaintainer(small_random_graph)
        order = engine.degeneracy_order()
        position = {v: i for i, v in enumerate(order)}
        d = engine.degeneracy()
        for v in small_random_graph.vertices():
            later = sum(
                1
                for w in small_random_graph.adj[v]
                if position[w] > position[v]
            )
            assert later <= d

    def test_coloring_proper_and_bounded(self, small_random_graph):
        engine = OrderedCoreMaintainer(small_random_graph)
        colors = greedy_coloring(engine)
        assert verify_coloring(small_random_graph, colors)
        assert max(colors.values()) + 1 <= chromatic_upper_bound(engine)

    def test_coloring_stays_valid_under_updates(self, small_random_graph):
        engine = OrderedCoreMaintainer(small_random_graph)
        rng = random.Random(2)
        vertices = sorted(small_random_graph.vertices())
        for _ in range(30):
            a, b = rng.sample(vertices, 2)
            if engine.graph.has_edge(a, b):
                engine.remove_edge(a, b)
            else:
                engine.insert_edge(a, b)
        colors = greedy_coloring(engine)
        assert verify_coloring(engine.graph, colors)
        assert max(colors.values()) < chromatic_upper_bound(engine)

    def test_clique_needs_exactly_size_colors(self):
        k = 5
        clique = [(i, j) for i in range(k) for j in range(i + 1, k)]
        engine = OrderedCoreMaintainer(DynamicGraph(clique))
        colors = greedy_coloring(engine)
        assert len(set(colors.values())) == k

    def test_bipartite_uses_two_colors_or_fewer_than_bound(self):
        bipartite = [(i, 10 + j) for i in range(4) for j in range(4)]
        engine = OrderedCoreMaintainer(DynamicGraph(bipartite))
        colors = greedy_coloring(engine)
        assert verify_coloring(engine.graph, colors)
        # Degeneracy of K_{4,4} is 4; bound certifies <= 5.
        assert max(colors.values()) + 1 <= 5

    def test_incomplete_coloring_rejected(self, triangle_graph):
        assert not verify_coloring(triangle_graph, {0: 0, 1: 1})
        assert not verify_coloring(triangle_graph, {0: 0, 1: 0, 2: 1, 3: 2})

    def test_coloring_in_arbitrary_order_still_proper(self, small_random_graph):
        order = sorted(small_random_graph.vertices())
        colors = greedy_coloring_in_order(small_random_graph, order)
        assert verify_coloring(small_random_graph, colors)


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
