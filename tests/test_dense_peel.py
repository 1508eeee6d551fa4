"""Seeded unit tests of :func:`repro.core.decomposition.dense_peel`.

The peel returns ``(vx, core, vert)`` over ids it numbers itself; these
tests read that raw form.  Each removal must take a vertex of smallest
remaining degree (never below the level already peeled), which
``tests/test_peel_oracle.py``'s k-order checks allow but do not demand,
and vertices of equal degree leave in the order they reached it (FIFO).
:meth:`DenseIds.peel` runs the same loop over kept lists and must return
the same ``(core, vert)`` on the same numbering.
"""

import random

import pytest

from helpers import cores_by_deletion
from repro.core.decomposition import (
    DenseIds,
    dense_peel,
    is_valid_korder,
    later_degrees,
)
from repro.graphs.undirected import DynamicGraph


def seeded_graph(seed):
    rng = random.Random(seed)
    n = 20 + 30 * seed
    graph = DynamicGraph(vertices=range(n))
    for _ in range(3 * n):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v and not graph.has_edge(u, v):
            graph.add_edge(u, v)
    graph.add_vertex("iso")
    return graph


def removal_levels(graph, order):
    """For each vertex of ``order``, the smallest remaining degree among
    the vertices not yet removed, never below the previous level."""
    remaining = set(order)
    levels, level = [], 0
    for v in order:
        level = max(
            level, min(len(graph.adj[u] & remaining) for u in remaining)
        )
        levels.append(level)
        remaining.discard(v)
    return levels


class TestDensePeel:
    def test_empty_graph(self):
        assert dense_peel(DynamicGraph()) == ([], [], [])

    def test_ids_follow_the_adjacency(self):
        graph = DynamicGraph([("a", "b"), ("b", "c"), ("c", "a"), ("c", "d")])
        vx, core, vert = dense_peel(graph)
        assert vx == list(graph.adj)
        assert sorted(vert) == list(range(len(vx)))
        assert dict(zip(vx, core)) == {"a": 2, "b": 2, "c": 2, "d": 1}
        assert vx[vert[0]] == "d"

    def test_isolated_vertices_come_first(self):
        graph = DynamicGraph([(1, 2), (2, 3), (3, 1)], vertices=["x", "y"])
        vx, core, vert = dense_peel(graph)
        assert {vx[i] for i in vert[:2]} == {"x", "y"}
        assert [core[i] for i in vert] == [0, 0, 2, 2, 2]

    def test_edgeless_graph_peels_every_vertex_at_zero(self):
        graph = DynamicGraph(vertices=range(60))
        vx, core, vert = dense_peel(graph)
        assert core == [0] * 60
        assert [vx[i] for i in vert] == list(range(60))

    def test_equal_degrees_leave_in_the_order_they_reached_it(self):
        """A path 0-..-6: both ends start at degree 1, and each removal
        drops the next vertex inward to 1 behind those already there, so
        the peel alternates between the ends (a LIFO queue would eat one
        end first)."""
        graph = DynamicGraph([(i, i + 1) for i in range(6)])
        vx, core, vert = dense_peel(graph)
        assert [vx[i] for i in vert] == [0, 6, 1, 5, 2, 4, 3]
        assert core == [1] * 7

    def test_a_lowered_vertex_queues_behind_its_new_bucket(self):
        """Triangle a-b-c with a pendant d on a: d goes first and drops
        a to degree 2, behind b and c, which were there from the start."""
        graph = DynamicGraph([("a", "b"), ("b", "c"), ("c", "a"), ("a", "d")])
        vx, core, vert = dense_peel(graph)
        assert [vx[i] for i in vert] == ["d", "b", "c", "a"]

    def test_degree_stops_at_the_level_being_peeled(self):
        """A K4 whose every vertex also has a pendant: the pendants go at
        level 1, after which each K4 vertex has degree 3; removing the
        first K4 vertex drops the others to 2, but they stay at level 3."""
        k4 = [(i, j) for i in range(4) for j in range(i + 1, 4)]
        graph = DynamicGraph(k4 + [(i, ("p", i)) for i in range(4)])
        vx, core, vert = dense_peel(graph)
        assert dict(zip(vx, core)) == cores_by_deletion(graph)
        assert [core[i] for i in vert] == [1] * 4 + [3] * 4
        assert {vx[i] for i in vert[:4]} == {("p", i) for i in range(4)}

    @pytest.mark.parametrize("seed", range(5))
    def test_smallest_remaining_degree_first(self, seed):
        graph = seeded_graph(seed)
        vx, core, vert = dense_peel(graph)
        order = [vx[i] for i in vert]
        by_vertex = dict(zip(vx, core))
        assert by_vertex == cores_by_deletion(graph)
        assert is_valid_korder(graph, by_vertex, order)
        assert [core[i] for i in vert] == removal_levels(graph, order)
        position = {v: i for i, v in enumerate(order)}
        assert later_degrees(graph.adj, order) == {
            v: sum(1 for w in graph.adj[v] if position[w] > position[v])
            for v in order
        }


@pytest.mark.parametrize("seed", range(5))
def test_kept_ids_peel_as_the_graph_does(seed):
    """On the numbering a fresh :class:`DenseIds` takes, which is
    :func:`dense_peel`'s, both return the same ``(core, vert)``; the
    lists keep the cores of their last peel."""
    graph = seeded_graph(seed)
    vx, core, vert = dense_peel(graph)
    ids = DenseIds(graph, {})
    assert ids.core == []
    assert ids.vx == vx
    assert ids.peel() == (core, vert)
    assert ids.core == core


def test_kept_ids_file_the_cores_they_are_given():
    graph = DynamicGraph([(1, 2), (2, 3), (3, 1)])
    before = dict(zip(*dense_peel(graph)[:2]))
    graph.add_edge(3, 4)
    assert DenseIds(graph, before).core == [2, 2, 2]
