"""Unit tests for OrderInsert (Algorithms 2-3), incl. the paper examples."""

import pytest

from repro.core.decomposition import core_numbers
from repro.core.maintainer import OrderedCoreMaintainer
from repro.graphs.undirected import DynamicGraph

from helpers import connected_component, fig3_edges, u


def fresh_maintainer(edges, **kw):
    kw.setdefault("audit", True)
    return OrderedCoreMaintainer(DynamicGraph(edges), **kw)


class TestBasicInsertions:
    def test_insert_into_empty_graph(self):
        m = OrderedCoreMaintainer(DynamicGraph(), audit=True)
        result = m.insert_edge(1, 2)
        assert set(result.changed) == {1, 2}
        assert result.k == 0
        assert m.core_of(1) == m.core_of(2) == 1

    def test_pendant_insertion_changes_nothing(self, triangle_graph):
        m = OrderedCoreMaintainer(triangle_graph, audit=True)
        result = m.insert_edge(3, 4)  # new vertex 4 hangs off vertex 3
        assert set(result.changed) == {4}  # 4 enters the 1-core
        assert m.core_of(3) == 1

    def test_closing_square_promotes(self, triangle_graph):
        m = OrderedCoreMaintainer(triangle_graph, audit=True)
        result = m.insert_edge(3, 0)
        assert result.changed == (3,)
        assert result.kind == "insert"
        assert result.k == 1
        assert result.delta == 1
        assert m.core_of(3) == 2

    def test_whole_cycle_promotes_together(self):
        # Path 0-1-2-3: closing the cycle lifts all four to core 2.
        m = fresh_maintainer([(0, 1), (1, 2), (2, 3)])
        result = m.insert_edge(3, 0)
        assert set(result.changed) == {0, 1, 2, 3}
        assert all(m.core_of(v) == 2 for v in range(4))

    def test_duplicate_edge_rejected(self, triangle_graph):
        m = OrderedCoreMaintainer(triangle_graph)
        from repro.errors import EdgeExistsError

        with pytest.raises(EdgeExistsError):
            m.insert_edge(0, 1)

    def test_self_loop_rejected(self, triangle_graph):
        m = OrderedCoreMaintainer(triangle_graph)
        from repro.errors import SelfLoopError

        with pytest.raises(SelfLoopError):
            m.insert_edge(0, 0)

    def test_building_clique_step_by_step(self):
        m = OrderedCoreMaintainer(DynamicGraph(), audit=True)
        vertices = range(5)
        for i in vertices:
            for j in range(i + 1, 5):
                m.insert_edge(i, j)
        assert all(m.core_of(v) == 4 for v in vertices)

    def test_insert_between_different_cores(self, triangle_graph):
        m = OrderedCoreMaintainer(triangle_graph, audit=True)
        # vertex 3 (core 1) to vertex 0 (core 2): K = 1 either way round.
        result = m.insert_edge(0, 3)
        assert result.k == 1
        assert m.core_of(3) == 2


class TestPaperExamples:
    def test_example_5_2_single_visit(self):
        """Insert (v4, u0): V* = {u0}, and OrderInsert visits ~1 vertex
        where the traversal algorithm visits the whole chain."""
        m = fresh_maintainer(fig3_edges(tail=2000), audit=False)
        result = m.insert_edge(4, u(0))
        assert result.changed == (u(0),)
        assert result.visited <= 3
        assert m.core_of(u(0)) == 2
        m.check()

    def test_example_5_2_chain_untouched(self):
        m = fresh_maintainer(fig3_edges(tail=100))
        m.insert_edge(4, u(0))
        for i in range(1, 100):
            assert m.core_of(u(i)) == 1

    def test_fig3_insert_inside_3_subcore(self):
        """Linking the two K4s densifies nothing immediately (cores cap
        at 3 until degree supports 4)."""
        m = fresh_maintainer(fig3_edges(tail=30))
        result = m.insert_edge(6, 10)
        assert result.changed == ()
        assert m.core_of(6) == 3 and m.core_of(10) == 3


class TestAgainstOracle:
    @pytest.mark.parametrize("seed", range(4))
    def test_insert_streams_match_recomputation(self, seed):
        import random

        rng = random.Random(seed)
        n = 25
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        rng.shuffle(pairs)
        base, updates = pairs[:40], pairs[40:140]
        m = fresh_maintainer(base)
        graph_copy = DynamicGraph(base)
        for e in updates:
            m.insert_edge(*e)
            graph_copy.add_edge(*e)
            assert m.core_numbers() == core_numbers(graph_copy)

    def test_theorem_3_1_core_changes_by_at_most_one(self, small_random_graph):
        before = core_numbers(small_random_graph)
        m = OrderedCoreMaintainer(small_random_graph, audit=True)
        import random

        rng = random.Random(0)
        vertices = sorted(before)
        for _ in range(40):
            a, b = rng.sample(vertices, 2)
            if m.graph.has_edge(a, b):
                continue
            snapshot = m.core_numbers()
            result = m.insert_edge(a, b)
            for v, new in m.core_numbers().items():
                assert new - snapshot.get(v, 0) in (0, 1)
            assert all(
                m.core_of(w) == snapshot[w] + 1 for w in result.changed
            )

    def test_v_star_within_one_k_level(self, small_random_graph):
        """Theorem 3.2: only vertices at level K can change."""
        m = OrderedCoreMaintainer(small_random_graph, audit=True)
        import random

        rng = random.Random(1)
        vertices = sorted(small_random_graph.vertices())
        for _ in range(40):
            a, b = rng.sample(vertices, 2)
            if m.graph.has_edge(a, b):
                continue
            before = m.core_numbers()
            result = m.insert_edge(a, b)
            for w in result.changed:
                assert before[w] == result.k

    def test_v_star_connected_in_new_graph(self, small_random_graph):
        """Theorem 3.2(3): the induced subgraph of V* is connected."""
        m = OrderedCoreMaintainer(small_random_graph, audit=True)
        import random

        rng = random.Random(2)
        vertices = sorted(small_random_graph.vertices())
        for _ in range(60):
            a, b = rng.sample(vertices, 2)
            if m.graph.has_edge(a, b):
                continue
            result = m.insert_edge(a, b)
            changed = set(result.changed)
            if len(changed) <= 1:
                continue
            sub = m.graph.subgraph(changed)
            start = next(iter(changed))
            assert connected_component(sub, start) == changed
