"""Unit tests for the synthetic graph generators."""

import pytest

from helpers import max_degree
from repro.graphs import generators
from repro.graphs.undirected import DynamicGraph


def assert_simple(edges):
    """No self-loops, no duplicates (in either direction)."""
    seen = set()
    for u, v in edges:
        assert u != v, f"self loop on {u}"
        key = (u, v) if u < v else (v, u)
        assert key not in seen, f"duplicate edge {key}"
        seen.add(key)


ALL_GENERATORS = [
    ("erdos_renyi", lambda s: generators.erdos_renyi_gnm(100, 250, seed=s)),
    ("barabasi_albert", lambda s: generators.barabasi_albert(150, 4, seed=s)),
    (
        "powerlaw_cluster",
        lambda s: generators.powerlaw_cluster(150, 4, 0.5, seed=s),
    ),
    ("chung_lu", lambda s: generators.chung_lu(200, 5.0, 2.3, seed=s)),
    ("copying", lambda s: generators.copying_model(150, 4, 0.6, seed=s)),
    (
        "affiliation",
        lambda s: generators.affiliation_collaboration(150, 120, seed=s),
    ),
    (
        "citation",
        lambda s: generators.layered_citation(150, 3.0, seed=s),
    ),
    ("road", lambda s: generators.road_grid(12, 12, seed=s)),
]


@pytest.mark.parametrize("name,make", ALL_GENERATORS, ids=[g[0] for g in ALL_GENERATORS])
class TestAllGenerators:
    def test_simple_graph(self, name, make):
        assert_simple(make(0))

    def test_deterministic_given_seed(self, name, make):
        assert make(7) == make(7)

    def test_seed_changes_output(self, name, make):
        assert make(1) != make(2)

    def test_nonempty_and_buildable(self, name, make):
        edges = make(3)
        assert len(edges) > 20
        graph = DynamicGraph.from_edges(edges)
        assert graph.n > 10


class TestSpecificShapes:
    def test_gnm_exact_edge_count(self):
        assert len(generators.erdos_renyi_gnm(50, 123, seed=1)) == 123

    def test_gnm_too_many_edges_rejected(self):
        with pytest.raises(ValueError):
            generators.erdos_renyi_gnm(4, 10, seed=0)

    def test_ba_degree_skew(self):
        edges = generators.barabasi_albert(400, 3, seed=4)
        g = DynamicGraph.from_edges(edges)
        # Preferential attachment: the max degree far exceeds the mean.
        assert max_degree(g) > 4 * g.average_degree()

    def test_ba_requires_enough_vertices(self):
        with pytest.raises(ValueError):
            generators.barabasi_albert(3, 5, seed=0)

    def test_powerlaw_cluster_has_triangles(self):
        edges = generators.powerlaw_cluster(200, 4, 0.9, seed=2)
        g = DynamicGraph.from_edges(edges)
        triangles = 0
        for u, v in g.edges():
            triangles += len(g.adj[u] & g.adj[v])
        assert triangles > 50

    def test_chung_lu_average_degree(self):
        edges = generators.chung_lu(1000, 6.0, 2.3, seed=3)
        g = DynamicGraph.from_edges(edges)
        assert 4.0 < 2 * len(edges) / 1000 < 8.0
        assert max_degree(g) > 3 * g.average_degree()

    def test_chung_lu_exponent_validated(self):
        with pytest.raises(ValueError):
            generators.chung_lu(100, 5.0, exponent=1.5, seed=0)

    def test_citation_edges_point_backwards(self):
        edges = generators.layered_citation(100, 2.5, seed=1)
        # Normalized (u < v) and v arrived after u, so max endpoint grows.
        assert all(u < v for u, v in edges)

    def test_road_grid_max_core_is_3(self):
        from repro.core.decomposition import core_numbers

        edges = generators.road_grid(40, 40, seed=5)
        cores = core_numbers(DynamicGraph.from_edges(edges))
        assert max(cores.values()) == 3

    def test_affiliation_clique_structure(self):
        edges = generators.affiliation_collaboration(
            100, 60, max_event_size=4, seed=6
        )
        g = DynamicGraph.from_edges(edges)
        triangles = 0
        for u, v in g.edges():
            triangles += len(g.adj[u] & g.adj[v])
        assert triangles > 10  # papers of size >= 3 are cliques
