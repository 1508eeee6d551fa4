"""Unit tests for the recompute-from-scratch oracle engine."""

from repro.naive.maintainer import NaiveCoreMaintainer
from repro.graphs.undirected import DynamicGraph


class TestNaive:
    def test_insert(self, triangle_graph):
        m = NaiveCoreMaintainer(triangle_graph)
        result = m.insert_edge(3, 0)
        assert result.changed == (3,)
        assert result.k == 1
        assert m.core_of(3) == 2

    def test_remove(self, triangle_graph):
        m = NaiveCoreMaintainer(triangle_graph)
        result = m.remove_edge(0, 1)
        assert set(result.changed) == {0, 1, 2}

    def test_insert_creates_vertices(self):
        m = NaiveCoreMaintainer(DynamicGraph())
        m.insert_edge("a", "b")
        assert m.core_of("a") == 1

    def test_visited_is_whole_graph(self, triangle_graph):
        m = NaiveCoreMaintainer(triangle_graph)
        result = m.insert_edge(3, 0)
        assert result.visited == triangle_graph.n

    def test_add_vertex(self, triangle_graph):
        m = NaiveCoreMaintainer(triangle_graph)
        assert m.add_vertex(9) is True
        assert m.add_vertex(9) is False
        assert m.core_of(9) == 0

    def test_remove_vertex(self, triangle_graph):
        m = NaiveCoreMaintainer(triangle_graph)
        m.remove_vertex(2)
        assert 2 not in m.core_numbers()
        assert m.core_of(0) == 1

    def test_shared_interface_helpers(self, triangle_graph):
        m = NaiveCoreMaintainer(triangle_graph)
        assert {v for v, c in m.core.items() if c >= 2} == {0, 1, 2}
        assert {v for v, c in m.core.items() if c == 1} == {3}
        assert m.degeneracy() == 2
        assert m.core_numbers() == {0: 2, 1: 2, 2: 2, 3: 1}

    def test_bulk_helpers(self):
        m = NaiveCoreMaintainer(DynamicGraph())
        for u, v in [(0, 1), (1, 2), (2, 0)]:
            m.insert_edge(u, v)
        assert m.degeneracy() == 2
        m.remove_edge(0, 1)
        assert m.degeneracy() == 1
