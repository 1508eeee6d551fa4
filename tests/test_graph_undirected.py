"""Unit tests for the dynamic undirected graph."""

import pytest

from repro.errors import (
    EdgeExistsError,
    EdgeNotFoundError,
    SelfLoopError,
    VertexNotFoundError,
)
from helpers import connected_component, max_degree
from repro.graphs.undirected import DynamicGraph


class TestConstruction:
    def test_empty(self):
        g = DynamicGraph()
        assert g.n == 0 and g.m == 0
        assert list(g.edges()) == []

    def test_from_edges(self):
        g = DynamicGraph.from_edges([(1, 2), (2, 3)])
        assert g.n == 3 and g.m == 2

    def test_isolated_vertices(self):
        g = DynamicGraph(vertices=[1, 2, 3])
        assert g.n == 3 and g.m == 0
        assert g.degree(2) == 0

    def test_copy_is_independent(self):
        g = DynamicGraph([(1, 2)])
        clone = g.copy()
        clone.add_edge(2, 3)
        assert g.m == 1 and clone.m == 2
        assert not g.has_vertex(3)

    def test_repr_mentions_sizes(self):
        assert "n=2" in repr(DynamicGraph([(1, 2)]))


class TestMembership:
    def test_has_vertex_and_contains(self):
        g = DynamicGraph([(1, 2)])
        assert g.has_vertex(1) and 1 in g
        assert not g.has_vertex(9) and 9 not in g

    def test_has_edge_symmetric(self):
        g = DynamicGraph([(1, 2)])
        assert g.has_edge(1, 2) and g.has_edge(2, 1)
        assert not g.has_edge(1, 3)

    def test_degree(self):
        g = DynamicGraph([(1, 2), (1, 3)])
        assert g.degree(1) == 2 and g.degree(3) == 1

    def test_degree_missing_vertex(self):
        with pytest.raises(VertexNotFoundError):
            DynamicGraph().degree(7)

    def test_neighbors(self):
        g = DynamicGraph([(1, 2), (1, 3)])
        assert set(g.neighbors(1)) == {2, 3}

    def test_neighbors_missing_vertex(self):
        with pytest.raises(VertexNotFoundError):
            list(DynamicGraph().neighbors(7))

    def test_edges_reported_once(self):
        edges = [(1, 2), (2, 3), (3, 1)]
        g = DynamicGraph(edges)
        seen = {tuple(sorted(e)) for e in g.edges()}
        assert seen == {(1, 2), (2, 3), (1, 3)}
        assert len(list(g.edges())) == 3


class TestMutation:
    def test_add_edge_creates_vertices(self):
        g = DynamicGraph()
        g.add_edge("x", "y")
        assert g.n == 2 and g.m == 1

    def test_add_duplicate_edge_raises(self):
        g = DynamicGraph([(1, 2)])
        with pytest.raises(EdgeExistsError):
            g.add_edge(2, 1)

    def test_self_loop_rejected(self):
        with pytest.raises(SelfLoopError):
            DynamicGraph().add_edge(1, 1)

    def test_remove_edge(self):
        g = DynamicGraph([(1, 2), (2, 3)])
        g.remove_edge(2, 1)
        assert not g.has_edge(1, 2)
        assert g.m == 1
        assert g.has_vertex(1)  # vertices survive edge removal

    def test_remove_missing_edge_raises(self):
        g = DynamicGraph([(1, 2)])
        with pytest.raises(EdgeNotFoundError):
            g.remove_edge(1, 3)

    def test_add_vertex_idempotent(self):
        g = DynamicGraph()
        assert g.add_vertex(5) is True
        assert g.add_vertex(5) is False

    def test_remove_vertex_returns_edges(self):
        g = DynamicGraph([(1, 2), (1, 3), (2, 3)])
        removed = g.remove_vertex(1)
        assert {tuple(sorted(e)) for e in removed} == {(1, 2), (1, 3)}
        assert g.n == 2 and g.m == 1

    def test_remove_missing_vertex_raises(self):
        with pytest.raises(VertexNotFoundError):
            DynamicGraph().remove_vertex(1)

    def test_edge_count_through_churn(self):
        g = DynamicGraph()
        for i in range(10):
            g.add_edge(i, i + 1)
        for i in range(0, 10, 2):
            g.remove_edge(i, i + 1)
        assert g.m == 5


class TestDerived:
    def test_subgraph_induced(self):
        g = DynamicGraph([(1, 2), (2, 3), (3, 4), (4, 1)])
        sub = g.subgraph([1, 2, 3])
        assert sub.n == 3 and sub.m == 2
        assert sub.has_edge(1, 2) and sub.has_edge(2, 3)
        assert not sub.has_edge(3, 4)

    def test_subgraph_ignores_unknown_vertices(self):
        g = DynamicGraph([(1, 2)])
        sub = g.subgraph([1, 2, 99])
        assert sub.n == 2

    def test_average_and_max_degree(self):
        g = DynamicGraph([(1, 2), (1, 3), (1, 4)])
        assert max_degree(g) == 3
        assert g.average_degree() == pytest.approx(6 / 4)
        assert DynamicGraph().average_degree() == 0.0

    def test_connected_component(self):
        g = DynamicGraph([(1, 2), (2, 3), (10, 11)])
        assert connected_component(g, 1) == {1, 2, 3}
        assert connected_component(g, 10) == {10, 11}

    def test_connected_component_missing(self):
        with pytest.raises(KeyError):
            connected_component(DynamicGraph(), 1)
