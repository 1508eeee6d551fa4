"""White-box tests of OrderRemoval's internals (Algorithm 4)."""

import random

import pytest

from repro.core.decomposition import core_numbers, korder_decomposition
from repro.core.korder import KOrder
from repro.core.maintainer import OrderedCoreMaintainer, compute_mcd
from repro.core.removal import demote_level, detach_edge
from repro.graphs.undirected import DynamicGraph


def build_state(edges, vertices=()):
    graph = DynamicGraph(edges, vertices=vertices)
    decomposition = korder_decomposition(graph, policy="small")
    korder = KOrder.from_decomposition(decomposition)
    core = korder.core
    mcd = compute_mcd(graph, core)
    return graph, korder, core, mcd


def remove_one(graph, korder, mcd, u, v):
    """One per-edge OrderRemoval, as the order-family engines run it:
    detach the edge, then one level-K cascade seeded with its roots.
    Returns ``(v_star, K, visited)``."""
    cu, cv = detach_edge(graph, korder, mcd, u, v)
    K = min(cu, cv)
    roots = (u, v) if cu == cv else (u,) if cu < cv else (v,)
    v_star, visited = demote_level(graph, korder, mcd, K, roots)
    return v_star, K, visited


class TestDisposalMechanics:
    def test_disposed_appended_to_tail_of_lower_block(self):
        """V* lands at the *end* of O_{K-1}, after its original members."""
        # Pendant path (core 1) + triangle (core 2); removing a triangle
        # edge demotes the triangle into O_1 behind the path vertices.
        edges = [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4)]
        graph, korder, core, mcd = build_state(edges)
        o1_before = list(korder.iter_block(1))
        v_star, k, _ = remove_one(graph, korder, mcd, 0, 1)
        assert set(v_star) == {0, 1, 2}
        o1_after = list(korder.iter_block(1))
        assert o1_after[: len(o1_before)] == o1_before
        assert set(o1_after[len(o1_before) :]) == {0, 1, 2}
        korder.audit(graph)

    def test_disposal_in_cascade_order(self):
        """Vertices enter O_{K-1} in the order the cascade disposed them,
        which keeps deg+ consistent (Theorem 5.3)."""
        # A 4-cycle: removing one edge demotes all four, one by one.
        edges = [(0, 1), (1, 2), (2, 3), (3, 0)]
        graph, korder, core, mcd = build_state(edges)
        v_star, k, _ = remove_one(graph, korder, mcd, 0, 1)
        assert set(v_star) == {0, 1, 2, 3}
        assert k == 2
        assert list(korder.iter_block(1)) == v_star
        korder.audit(graph)

    def test_no_cascade_when_slack_exists(self):
        """mcd slack absorbs the removal: V* empty, order repaired."""
        # Square plus a diagonal: dropping the diagonal leaves a plain
        # 4-cycle, still a 2-core — no core number changes.
        edges = [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]
        graph, korder, core, mcd = build_state(edges)
        assert all(c == 2 for c in core.values())
        v_star, k, visited = remove_one(graph, korder, mcd, 0, 2)
        assert v_star == []
        assert all(c == 2 for c in core.values())
        korder.audit(graph)

    def test_removal_to_empty_graph(self):
        graph, korder, core, mcd = build_state([(0, 1)])
        v_star, k, _ = remove_one(graph, korder, mcd, 0, 1)
        assert set(v_star) == {0, 1}
        assert core == {0: 0, 1: 0}
        assert list(korder.iter_block(0)) == v_star
        korder.audit(graph)

    def test_cross_level_removal_only_touches_lower(self):
        """Removing an edge between O_1 and O_3 never enters O_3."""
        k4 = [(10, 11), (10, 12), (10, 13), (11, 12), (11, 13), (12, 13)]
        graph, korder, core, mcd = build_state(k4 + [(10, 0), (0, 1)])
        o3_before = list(korder.iter_block(3))
        v_star, k, _ = remove_one(graph, korder, mcd, 10, 0)
        assert k == 1
        assert list(korder.iter_block(3)) == o3_before
        assert core[10] == 3
        korder.audit(graph)


class TestDegPlusRepair:
    def test_removed_edge_decrements_earlier_endpoint(self):
        """The departing edge leaves deg+ of whichever endpoint came
        first, even when no core changes."""
        k4 = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
        extra = [(0, 4), (1, 4), (2, 4), (3, 4)]
        graph, korder, core, mcd = build_state(k4 + extra)
        total_before = sum(korder.deg_plus.values())
        remove_one(graph, korder, mcd, 2, 3)
        # Exactly one deg+ unit disappears with the edge.
        assert sum(korder.deg_plus.values()) == total_before - 1
        korder.audit(graph)

    @pytest.mark.parametrize("seed", range(3))
    def test_repeated_removals_keep_full_consistency(self, seed):
        rng = random.Random(seed)
        n = 20
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        rng.shuffle(pairs)
        base = pairs[:80]
        graph, korder, core, mcd = build_state(base, vertices=range(n))
        victims = base[:]
        rng.shuffle(victims)
        for e in victims[:50]:
            remove_one(graph, korder, mcd, *e)
            # The cascade keeps mcd exact: no refresh between removals.
            assert mcd == compute_mcd(graph, core)
            korder.audit(graph)
            assert core == core_numbers(graph)


class TestMaintainerRemovalBehaviour:
    def test_invalid_removal_leaves_index_untouched(self):
        """A removal of an absent edge must fail before any index
        mutation: deg+ used to be decremented ahead of the graph's
        validation, leaving the k-order corrupted."""
        from repro.errors import EdgeNotFoundError

        engine = OrderedCoreMaintainer(
            DynamicGraph([(1, 2), (2, 3), (3, 4), (1, 3)])
        )
        with pytest.raises(EdgeNotFoundError):
            engine.remove_edge(1, 4)  # both vertices exist, edge absent
        engine.check()
        assert engine.core_numbers() == core_numbers(engine.graph)

    def test_visited_counts_touched_bounds(self, triangle_graph):
        engine = OrderedCoreMaintainer(triangle_graph)
        result = engine.remove_edge(0, 1)
        # The cascade materialized a bound for at least the two endpoints.
        assert result.visited >= 2

    def test_interleaving_heavy_churn(self):
        """Insert/remove the same dense pocket repeatedly; the index must
        not drift (this hammers block creation/deletion)."""
        engine = OrderedCoreMaintainer(DynamicGraph([(0, 1)]), audit=True)
        clique = [(a, b) for a in range(5) for b in range(a + 1, 5)]
        for _ in range(6):
            for e in clique:
                if not engine.graph.has_edge(*e):
                    engine.insert_edge(*e)
            assert engine.degeneracy() == 4
            for e in clique:
                if engine.graph.has_edge(*e) and e != (0, 1):
                    engine.remove_edge(*e)
            assert engine.degeneracy() == 1
