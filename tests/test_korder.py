"""Unit tests for the maintained k-order index."""

import random

import pytest

from helpers import cores_by_deletion, mcd_by_scan
from repro.core.decomposition import (
    compute_mcd,
    core_numbers,
    korder_decomposition,
)
from repro.core.korder import KOrder
from repro.errors import InvariantViolationError
from repro.graphs.undirected import DynamicGraph


@pytest.fixture
def korder_and_graph(triangle_graph):
    d = korder_decomposition(triangle_graph, policy="small")
    return KOrder.from_decomposition(d), triangle_graph, d


class TestConstruction:
    def test_from_decomposition_order(self, korder_and_graph):
        ko, graph, d = korder_and_graph
        assert ko.order() == d.order
        assert len(ko) == graph.n

    def test_blocks_match_cores(self, korder_and_graph):
        ko, graph, d = korder_and_graph
        for v in graph.vertices():
            assert ko.k_of(v) == d.core[v]

    def test_deg_plus_copied(self, korder_and_graph):
        ko, _, d = korder_and_graph
        assert ko.deg_plus == d.deg_plus

    def test_block_sizes(self, korder_and_graph):
        ko, _, _ = korder_and_graph
        assert ko.block_sizes() == {1: 1, 2: 3}

    def test_contains(self, korder_and_graph):
        ko, _, _ = korder_and_graph
        assert 0 in ko
        assert 99 not in ko


class TestOrderQueries:
    def test_precedes_cross_block(self, korder_and_graph):
        ko, _, _ = korder_and_graph
        # vertex 3 (core 1) precedes every triangle vertex (core 2)
        for v in (0, 1, 2):
            assert ko.precedes(3, v)
            assert not ko.precedes(v, 3)

    def test_precedes_within_block_consistent_with_order(self, korder_and_graph):
        ko, _, _ = korder_and_graph
        ordered = ko.order()
        for i, a in enumerate(ordered):
            for b in ordered[i + 1 :]:
                assert ko.precedes(a, b)
                assert not ko.precedes(b, a)

    def test_rank_in_block(self, korder_and_graph):
        ko, _, _ = korder_and_graph
        block2 = list(ko.iter_block(2))
        for i, v in enumerate(block2):
            assert ko.rank_in_block(v) == i

    def test_iter_missing_block_empty(self, korder_and_graph):
        ko, _, _ = korder_and_graph
        assert list(ko.iter_block(7)) == []


class TestUpdates:
    def test_append_to_new_block(self, korder_and_graph):
        ko, _, _ = korder_and_graph
        ko.append(5, "new")
        assert ko.k_of("new") == 5
        assert list(ko.iter_block(5)) == ["new"]
        assert ko.order()[-1] == "new"

    def test_promote_chain_preserves_relative_order(self):
        ko = KOrder()
        for v in "abcd":
            ko.append(1, v)
        ko.append(2, "x")
        node_c = ko.block(1).nodes["c"]
        ko.promote_chain(1, ["c", "a"])
        assert list(ko.iter_block(2)) == ["c", "a", "x"]
        assert list(ko.iter_block(1)) == ["b", "d"]
        assert ko.k_of("c") == ko.k_of("a") == 2
        assert ko.block(2).nodes["c"] is node_c  # the node moved along
        ko.promote_chain(1, ["b", "d"])
        assert 1 not in ko.block_sizes()
        assert ko.order() == ["b", "d", "c", "a", "x"]
        ko.block(2).check_invariants()

    def test_move_back_appends_to_another_block(self):
        ko = KOrder()
        for v in "abc":
            ko.append(2, v)
        ko.append(1, "x")
        node_b = ko.block(2).nodes["b"]
        ko.move_back("b", 1)
        assert list(ko.iter_block(1)) == ["x", "b"]
        assert list(ko.iter_block(2)) == ["a", "c"]
        assert ko.k_of("b") == 1 and ko.block(1).nodes["b"] is node_b
        with pytest.raises(ValueError):
            ko.move_back("b", 1)  # already in O_1
        ko.move_back("a", 1)
        ko.move_back("c", 1)
        assert ko.block_sizes() == {1: 4}
        ko.block(1).check_invariants()

    def test_remove_drops_empty_block(self, korder_and_graph):
        ko, _, _ = korder_and_graph
        ko.remove(3)
        assert 1 not in ko.block_sizes()

    def test_forget_drops_deg_plus(self, korder_and_graph):
        ko, _, _ = korder_and_graph
        ko.forget(3)
        assert 3 not in ko.deg_plus

    def test_move_after_repositions(self):
        ko = KOrder()
        for v in "abcd":
            ko.append(2, v)
        ko.move_after("c", "a")
        assert list(ko.iter_block(2)) == ["b", "c", "a", "d"]

    def test_move_after_cross_block_rejected(self, korder_and_graph):
        ko, _, _ = korder_and_graph
        with pytest.raises(InvariantViolationError):
            ko.move_after(0, 3)  # 0 in O_2, 3 in O_1


class TestAudit:
    def test_clean_index_passes(self, korder_and_graph):
        ko, graph, d = korder_and_graph
        ko.audit(graph, d.core)

    def test_missing_vertex_detected(self, korder_and_graph):
        ko, graph, d = korder_and_graph
        ko.remove(3)
        with pytest.raises(InvariantViolationError):
            ko.audit(graph, d.core)

    def test_wrong_block_detected(self, korder_and_graph):
        ko, graph, d = korder_and_graph
        ko.remove(3)
        ko.append(2, 3)  # vertex 3 has core 1, not 2
        with pytest.raises(InvariantViolationError):
            ko.audit(graph, d.core)

    def test_stale_deg_plus_detected(self, korder_and_graph):
        ko, graph, d = korder_and_graph
        ko.deg_plus[0] += 1
        with pytest.raises(InvariantViolationError):
            ko.audit(graph, d.core)

    def test_lemma_5_1_violation_detected(self):
        # Path a-b-c with b forced first: deg+(b) = 2 > core 1.
        g = DynamicGraph([("a", "b"), ("b", "c")])
        core = core_numbers(g)
        ko = KOrder()
        for v in ("b", "a", "c"):
            ko.append(1, v)
        ko.deg_plus.update({"b": 2, "a": 1, "c": 0})
        with pytest.raises(InvariantViolationError):
            ko.audit(g, core)


K6 = [(a, b) for a in range(6) for b in range(a + 1, 6)]
TRIANGLE = [("x", "y"), ("y", "z"), ("z", "x")]


def appended_one_by_one(decomposition):
    """The index as one ``append`` per vertex of the order builds it."""
    ko = KOrder()
    for v in decomposition.order:
        ko.append(decomposition.core[v], v)
    return ko


def block_labels(ko):
    """Each block's OM-list labels, left to right."""
    return {
        k: [node.label for node in ko.block(k)._iter_nodes()]
        for k in ko.block_sizes()
    }


def mixed_graph(seed):
    """A seeded graph over ``str`` and tuple vertices, two of them
    isolated."""
    rng = random.Random(seed)
    names = [f"s{i}" for i in range(15)] + [("t", i) for i in range(15)]
    graph = DynamicGraph(vertices=names + ["iso", ("iso",)])
    for _ in range(25 + 20 * seed):
        u, v = rng.sample(names, 2)
        if not graph.has_edge(u, v):
            graph.add_edge(u, v)
    return graph


class TestBulkBuild:
    """``from_decomposition`` labels each block in one pass; the blocks,
    the ``k_of`` map and every label match vertex-by-vertex appends."""

    @pytest.mark.parametrize(
        "edges, vertices, sizes",
        [
            (K6 + TRIANGLE, ["iso"], {0: 1, 2: 3, 5: 6}),
            (K6, [], {5: 6}),
            ([], [], {}),
        ],
        ids=["levels-0-2-5", "one-block", "empty"],
    )
    def test_from_decomposition(self, edges, vertices, sizes):
        graph = DynamicGraph(edges, vertices=vertices)
        d = korder_decomposition(graph)
        ko = KOrder.from_decomposition(d)
        ko.audit(graph, d.core)
        assert ko.order() == d.order
        assert ko.block_sizes() == sizes
        assert {v: ko.k_of(v) for v in d.order} == d.core
        assert block_labels(ko) == block_labels(appended_one_by_one(d))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_from_decomposition_on_mixed_vertices(self, seed):
        graph = mixed_graph(seed)
        d = korder_decomposition(graph)
        ko = KOrder.from_decomposition(d)
        ko.audit(graph, d.core)
        assert ko.order() == d.order
        assert ko.block_sizes() == appended_one_by_one(d).block_sizes()
        assert block_labels(ko) == block_labels(appended_one_by_one(d))

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_compute_mcd_matches_a_scan(self, seed):
        graph = mixed_graph(seed)
        core = cores_by_deletion(graph)
        assert compute_mcd(graph, core) == mcd_by_scan(graph, core)
        assert compute_mcd(graph, core)["iso"] == 0

    def test_compute_mcd_on_the_empty_graph(self):
        assert compute_mcd(DynamicGraph(), {}) == {}
