"""What consumers of core numbers read from a service, checked against
independent oracles.

The paper names community search, densest subgraphs and network
resilience as the consumers of maintained core numbers.  Each reads the
service's maintained answers; these tests hold those answers to facts
that need no engine:

* under edge removal the degeneracy never rises, and each receipt's
  demotions are exactly the core drops a from-scratch decomposition sees;
* the max-core (``svc.kcore(svc.degeneracy())``) is a 1/2-approximation
  of the densest subgraph, found here by brute force on small graphs;
* the ``k``-core is what is left after repeatedly peeling every vertex
  with fewer than ``k`` surviving neighbours.
"""

import random

import pytest

from repro import CoreService, core_numbers
from repro.analysis.kcore_views import core_spectrum, degeneracy
from repro.graphs.undirected import DynamicGraph

from helpers import random_gnm

ENGINES = ("order", "order-simplified", "trav-2", "naive")


def _removal_plan(graph, count, seed):
    edges = sorted(graph.edges())
    random.Random(seed).shuffle(edges)
    return edges[:count]


class TestRemovalReads:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_degeneracy_never_increases_under_removal(
        self, engine, small_random_graph
    ):
        svc = CoreService.open(small_random_graph, engine=engine)
        trajectory = [svc.degeneracy()]
        for u, v in _removal_plan(svc.graph, 40, seed=2):
            svc.remove(u, v)
            trajectory.append(svc.degeneracy())
        assert trajectory == sorted(trajectory, reverse=True)
        assert trajectory[-1] == degeneracy(core_numbers(svc.graph))

    @pytest.mark.parametrize("engine", ENGINES)
    def test_demotions_match_a_from_scratch_decomposition(
        self, engine, small_random_graph
    ):
        svc = CoreService.open(small_random_graph, engine=engine)
        before = core_numbers(svc.graph)
        for u, v in _removal_plan(svc.graph, 40, seed=5):
            receipt = svc.remove(u, v)
            after = core_numbers(svc.graph)
            assert receipt.promotions == 0
            assert receipt.demotions == sum(
                before[w] - after[w] for w in after
            )
            assert svc.spectrum() == core_spectrum(after)
            before = after

    def test_removing_every_edge_empties_every_core(self, triangle_graph):
        svc = CoreService.open(triangle_graph)
        demotions = sum(
            svc.remove(u, v).demotions for u, v in list(svc.graph.edges())
        )
        assert svc.graph.m == 0
        assert demotions == 2 + 2 + 2 + 1
        assert svc.cores() == {0: 0, 1: 0, 2: 0, 3: 0}
        assert svc.spectrum() == {0: 4}
        assert svc.degeneracy() == 0


def _density(graph):
    return graph.m / graph.n if graph.n else 0.0


def _densest_density(graph):
    """The densest subgraph's ``|E| / |V|``, by trying every vertex set."""
    vertices = sorted(graph.vertices())
    bit = {v: 1 << i for i, v in enumerate(vertices)}
    edges = [bit[a] | bit[b] for a, b in graph.edges()]
    best = 0.0
    for mask in range(1, 1 << len(vertices)):
        m = sum(1 for e in edges if e & mask == e)
        best = max(best, m / bin(mask).count("1"))
    return best


class TestEliteCore:
    @pytest.mark.parametrize("seed", range(10))
    def test_max_core_is_a_half_approximation(self, seed):
        graph = random_gnm(10, 14 + 2 * seed, seed)
        svc = CoreService.open(graph)
        k = svc.degeneracy()
        elite = _density(svc.kcore(k).subgraph())
        best = _densest_density(graph)
        # Min degree k inside the max-core gives density >= k / 2; a
        # degeneracy ordering bounds every subgraph's density by k.
        assert k / 2 <= elite <= best <= k
        assert 2 * elite >= best

    def test_fig3_elite_core_is_both_k4s(self, fig3_graph):
        svc = CoreService.open(fig3_graph)
        assert svc.degeneracy() == 3
        elite = svc.kcore(3).subgraph()
        assert set(elite.vertices()) == set(range(6, 14))
        assert _density(elite) == pytest.approx(12 / 8)

    def test_clique_with_a_tail(self):
        clique = [(i, j) for i in range(5) for j in range(i + 1, 5)]
        svc = CoreService.open(clique + [(4, 10), (10, 11), (11, 12)])
        elite = svc.kcore(svc.degeneracy()).subgraph()
        assert set(elite.vertices()) == {0, 1, 2, 3, 4}
        assert _density(elite) == pytest.approx(2.0)

    def test_elite_core_tracks_growth(self, triangle_graph):
        svc = CoreService.open(triangle_graph)
        assert _density(svc.kcore(svc.degeneracy()).subgraph()) == 1.0
        # Grow a K5 around vertex 0.
        for e in [(0, 4), (1, 4), (2, 4), (0, 3), (1, 3), (3, 4)]:
            svc.insert(*e)
        elite = svc.kcore(svc.degeneracy()).subgraph()
        assert set(elite.vertices()) == {0, 1, 2, 3, 4}
        assert _density(elite) == pytest.approx(2.0)

    def test_empty_service(self):
        svc = CoreService.open()
        assert svc.degeneracy() == 0
        assert svc.kcore(0).subgraph().n == 0


def departure_cascade(graph, k):
    """Peel every vertex with fewer than ``k`` surviving neighbours until
    none is left; returns the departure order and the survivors."""
    degree = {v: graph.degree(v) for v in graph.vertices()}
    queue = sorted(v for v, d in degree.items() if d < k)
    queued, departures = set(queue), []
    while queue:
        v = queue.pop()
        departures.append(v)
        for w in graph.neighbors(v):
            if w not in queued:
                degree[w] -= 1
                if degree[w] < k:
                    queued.add(w)
                    queue.append(w)
    return departures, set(graph.vertices()) - queued


class TestPeelingCascade:
    @pytest.mark.parametrize("k", range(5))
    def test_survivors_are_the_maintained_kcore(self, k, small_random_graph):
        svc = CoreService.open(small_random_graph)
        rng = random.Random(k)
        vertices = sorted(svc.graph.vertices())
        for _ in range(20):
            a, b = rng.sample(vertices, 2)
            if svc.graph.has_edge(a, b):
                svc.remove(a, b)
            else:
                svc.insert(a, b)
        _, survivors = departure_cascade(svc.graph, k)
        assert svc.kcore(k).vertices() == survivors

    @pytest.mark.parametrize("k", range(1, 5))
    def test_fig3_departures_leave_with_fewer_than_k(self, k, fig3_graph):
        departures, survivors = departure_cascade(fig3_graph, k)
        gone = set()
        for v in departures:
            alive = sum(1 for w in fig3_graph.neighbors(v) if w not in gone)
            assert alive < k
            gone.add(v)
        assert survivors == CoreService.open(fig3_graph).kcore(k).vertices()
        assert gone | survivors == set(fig3_graph.vertices())
