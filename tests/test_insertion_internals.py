"""White-box tests of OrderInsert's internals: candidate evictions
(Algorithm 3), Observation 6.1 repositioning, and the jump behaviour."""

import heapq
import random
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import cores_by_deletion
from repro.core import insertion, korder as korder_module
from repro.core.ablation import ScanningOrderedCoreMaintainer
from repro.core.decomposition import korder_decomposition
from repro.core.insertion import order_insert
from repro.core.korder import KOrder
from repro.core.maintainer import OrderedCoreMaintainer
from repro.graphs.undirected import DynamicGraph
from repro.structures.sequence import TaggedOrderList


def build_state(edges, vertices=()):
    """Graph + k-order + cores for direct order_insert driving.

    ``order_insert`` assumes every endpoint is already indexed (vertex
    registration is the maintainer's job), so tests that feed arbitrary
    edges must pre-register the vertex universe.
    """
    graph = DynamicGraph(edges, vertices=vertices)
    decomposition = korder_decomposition(graph, policy="small")
    korder = KOrder.from_decomposition(decomposition)
    return graph, korder, korder.core


class TestEvictionCascade:
    def test_eviction_happens_on_random_streams(self):
        """Guard against the Algorithm 3 cascade being dead code: across a
        random insertion stream, some update must evict a candidate."""
        rng = random.Random(5)
        n = 30
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        rng.shuffle(pairs)
        engine = OrderedCoreMaintainer(
            DynamicGraph(pairs[:70], vertices=range(n)), audit=True
        )
        total_evicted = 0
        for e in pairs[70:260]:
            result = engine.insert_edge(*e)
            total_evicted += result.evicted
            # Conservation: every visited vertex is candidate-or-settled,
            # and every eventual candidate was visited.
            assert result.visited >= len(result.changed) + result.evicted
        assert total_evicted > 0

    def test_eviction_counts_on_traversal_engine_too(self):
        from repro.traversal.maintainer import TraversalCoreMaintainer

        rng = random.Random(6)
        n = 30
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        rng.shuffle(pairs)
        engine = TraversalCoreMaintainer(
            DynamicGraph(pairs[:70], vertices=range(n)), h=2
        )
        assert sum(
            engine.insert_edge(*e).evicted for e in pairs[70:220]
        ) > 0

    def test_targeted_eviction_scenario(self):
        """A hand-built eviction: a near-candidate chain that collapses.

        Square 0-1-2-3 (core 2) with a path 4-5 attached to it at both
        ends: inserting (4, 5)... builds a case where scanning O_1
        considers chain vertices and must retract some.
        """
        edges = [(0, 1), (1, 2), (2, 3), (3, 0),  # square, core 2
                 (0, 4), (4, 5), (5, 6)]           # dangling path, core 1
        graph, korder, core = build_state(edges)
        # Insert (6, 0): path 4-5-6 + 0 forms a cycle -> all rise to 2.
        v_star, k, visited, evicted = order_insert(graph, korder, 6, 0)
        assert set(v_star) == {4, 5, 6}
        assert k == 1
        korder.audit(graph)

    def test_failed_promotion_evicts_everyone(self):
        """Candidates that cannot close the loop all get evicted."""
        # Path 0-1-2-3-4; insert (0, 2) creates a triangle 0-1-2 only.
        edges = [(0, 1), (1, 2), (2, 3), (3, 4)]
        graph, korder, core = build_state(edges)
        v_star, k, visited, evicted = order_insert(graph, korder, 0, 2)
        assert set(v_star) == {0, 1, 2}
        assert core[3] == 1 and core[4] == 1
        korder.audit(graph)


class TestRepositioning:
    def test_evicted_vertex_lands_after_settler(self):
        """Observation 6.1: an evicted candidate must end up after the
        vertex whose settlement triggered the cascade."""
        rng = random.Random(7)
        n = 24
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        rng.shuffle(pairs)
        engine = OrderedCoreMaintainer(
            DynamicGraph(pairs[:60], vertices=range(n)), audit=True
        )
        # audit=True already verifies deg+ against the final order after
        # every update; additionally confirm evictions occurred so the
        # repositioning path was really exercised.
        evictions = sum(
            engine.insert_edge(*e).evicted for e in pairs[60:220]
        )
        assert evictions > 0

    def test_promoted_set_prepended_in_relative_order(self):
        """V* lands at the front of O_{K+1} preserving its own order."""
        # Path 0-1-2-3 closed into a cycle: all four promote from O_1.
        edges = [(0, 1), (1, 2), (2, 3)]
        graph, korder, core = build_state(edges)
        before = [v for v in korder.iter_block(1)]
        v_star, k, _, _ = order_insert(graph, korder, 3, 0)
        block2 = list(korder.iter_block(2))
        assert block2[: len(v_star)] == v_star
        # Relative order among promoted vertices matches their O_1 order.
        original_pos = {v: i for i, v in enumerate(before)}
        promoted_pos = [original_pos[v] for v in v_star]
        assert promoted_pos == sorted(promoted_pos)

    def test_untouched_higher_blocks_keep_order(self):
        """An O_1 update must not reshuffle O_3."""
        k4 = [(10, 11), (10, 12), (10, 13), (11, 12), (11, 13), (12, 13)]
        chain = [(0, 1), (1, 2)]
        graph, korder, core = build_state(k4 + chain)
        before = list(korder.iter_block(3))
        order_insert(graph, korder, 2, 0)
        assert list(korder.iter_block(3)) == before


class TestJumps:
    def test_case_2a_vertices_never_visited(self):
        """On the paper's chain scenario the scan must not touch the
        skipped Case-2a stretch at all (visited == 1)."""
        from helpers import fig3_edges, u

        graph = DynamicGraph(fig3_edges(tail=300))
        decomposition = korder_decomposition(graph, policy="small")
        korder = KOrder.from_decomposition(decomposition)
        v_star, k, visited, evicted = order_insert(
            graph, korder, 4, u(0)
        )
        assert v_star == [u(0)]
        assert visited == 1
        assert evicted == 0

    def test_no_work_when_deg_plus_fits(self):
        """Lemma 5.2 early exit: zero visits when deg+(u) stays <= K."""
        # Triangle with pendant: adding a second pendant edge to vertex 3
        # keeps deg+(3) at 1 <= core 1 only if 3 is ordered before the new
        # neighbor; verify via the result's visited count being 0 or the
        # cores being unchanged.
        engine = OrderedCoreMaintainer(
            DynamicGraph([(0, 1), (1, 2), (2, 0), (2, 3)]), audit=True
        )
        result = engine.insert_edge(3, 99)  # fresh pendant vertex
        assert result.changed == (99,)  # only the new vertex enters core 1

    def test_insertion_between_blocks_touches_lower_block_only(self):
        engine = OrderedCoreMaintainer(
            DynamicGraph(
                [(0, 1), (1, 2), (2, 0),  # triangle, core 2
                 (5, 6)]                   # lone edge, core 1
            ),
            audit=True,
        )
        result = engine.insert_edge(5, 0)
        assert result.k == 1
        assert engine.core_of(5) == 1  # still degree-starved at level 2


class TestConsistencyWithOracle:
    @pytest.mark.parametrize("seed", range(3))
    def test_internals_roundtrip_many_shapes(self, seed):
        """Drive order_insert directly (not via the maintainer) and check
        cores against recomputation plus a full audit every step."""
        from repro.core.decomposition import core_numbers

        rng = random.Random(seed)
        n = 18
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        rng.shuffle(pairs)
        graph, korder, core = build_state(pairs[:30], vertices=range(n))
        for e in pairs[30:90]:
            order_insert(graph, korder, *e)
            korder.audit(graph)
            assert core == core_numbers(graph)


class NarrowOrderList(TaggedOrderList):
    """A k-order block over a 2^12 label space with 1-wide append gaps:
    every eviction's ``move_after`` relabels, in mid-scan."""

    _SPAN = 1 << 12
    _GAP = 1


N_REKEY = 30
PAIRS_REKEY = [(i, j) for i in range(N_REKEY) for j in range(i + 1, N_REKEY)]


def shuffled_pairs(seed):
    """``PAIRS_REKEY`` in a seeded random order."""
    pairs = PAIRS_REKEY[:]
    random.Random(seed).shuffle(pairs)
    return pairs


class TestRekeyOnRelabel:
    def test_rekeyed_scan_matches_sequential_scan(self):
        """On narrow blocks, where every eviction relabels in mid-scan,
        the jump scan must keep returning what the sequential scan
        (which walks successor links and so holds no label across an
        eviction) returns, edge by edge, with cores equal to the
        deletion oracle and the whole index audited after every insert.

        A probe on the re-key's ``heapify`` records how many live
        entries each re-key rebuilt; some re-key must have rebuilt at
        least one, or the examples never relabeled under a pending
        candidate.  The two explicit examples are streams where a
        relabel lands while candidates are pending and a later order
        test reads a stale label unless the scan re-keys."""
        rekeyed = []

        def counting_heapify(heap):
            rekeyed.append(len(heap))
            heapq.heapify(heap)

        @given(
            pairs=st.permutations(PAIRS_REKEY),
            base=st.integers(30, 60),
            inserts=st.integers(20, 80),
        )
        @example(pairs=shuffled_pairs(66), base=45, inserts=80)
        @example(pairs=shuffled_pairs(77), base=45, inserts=80)
        @settings(max_examples=40, deadline=None, derandomize=True)
        def check(pairs, base, inserts):
            live, stream = pairs[:base], pairs[base:base + inserts]
            scan = ScanningOrderedCoreMaintainer(
                DynamicGraph(live, vertices=range(N_REKEY))
            )
            with mock.patch.object(
                korder_module, "TaggedOrderList", NarrowOrderList
            ):
                jump = OrderedCoreMaintainer(
                    DynamicGraph(live, vertices=range(N_REKEY)), audit=True
                )
            for edge in stream:
                with mock.patch.object(
                    korder_module, "TaggedOrderList", NarrowOrderList
                ), mock.patch.object(insertion, "heapify", counting_heapify):
                    rj = jump.insert_edge(*edge)
                rs = scan.insert_edge(*edge)
                assert (rj.changed, rj.k, rj.visited, rj.evicted) == (
                    rs.changed, rs.k, rs.visited, rs.evicted
                )
                assert jump.core_numbers() == cores_by_deletion(jump.graph)
            assert all(
                isinstance(block, NarrowOrderList)
                for block in jump.korder._blocks.values()
            )

        check()
        assert any(rekeyed), "no relabel landed under a pending candidate"


class TestRemoveCandidates:
    """Algorithm 3 (``_remove_candidates``) driven on hand-built scan
    states: block ``O_1``, the cursor ``s`` just settled."""

    def test_evictee_settles_behind_cursor_and_unvisited_leaves_live(self):
        """``c`` loses its only spare ``deg+`` unit to the settled cursor
        and is evicted right behind it; the unvisited ``w`` it granted
        ``deg*`` to drops to 0 and leaves the live map.  ``x`` sits in
        another block and is never read."""
        block = TaggedOrderList(["c", "s", "w"])
        adj = {"s": {"c"}, "c": {"s", "w", "x"}, "w": {"c"}, "x": {"c"}}
        core = {"c": 1, "s": 1, "w": 1, "x": 2}
        deg_plus = {"c": 2, "s": 0, "w": 0}
        deg_star = {"w": 1}
        status = {"c": insertion._VC, "s": insertion._SETTLED}
        live = {"w": block.nodes["w"].label}
        reads = insertion._remove_candidates(
            adj, block, core, deg_plus, deg_star, status, {"c": 1},
            live, "s", 1,
        )
        assert reads == 1  # w's label; x is not in O_1
        assert block.to_list() == ["s", "c", "w"]
        assert status["c"] == insertion._SETTLED
        assert deg_plus["c"] == 1
        assert deg_star["w"] == 0 and live == {}

    def test_evictions_cascade_behind_the_cursor_in_queue_order(self):
        """Evicting ``c1`` takes back the ``deg*`` unit it granted ``c2``
        (visited later), which evicts ``c2`` too; each evictee lands right
        behind the previous one and absorbs what ``deg*`` it has left."""
        block = TaggedOrderList(["c1", "c2", "s"])
        adj = {"s": {"c1"}, "c1": {"s", "c2"}, "c2": {"c1"}}
        core = dict.fromkeys(adj, 1)
        deg_plus = {"c1": 1, "c2": 1, "s": 0}
        deg_star = {"c2": 1}
        status = {
            "c1": insertion._VC, "c2": insertion._VC,
            "s": insertion._SETTLED,
        }
        live = {}
        reads = insertion._remove_candidates(
            adj, block, core, deg_plus, deg_star, status,
            {"c1": 1, "c2": 2}, live, "s", 1,
        )
        assert reads == 0  # no unvisited neighbor
        assert block.to_list() == ["s", "c1", "c2"]
        assert status["c1"] == status["c2"] == insertion._SETTLED
        assert deg_plus == {"c1": 0, "c2": 1, "s": 0}
        assert "c2" not in deg_star and live == {}
        block.check_invariants()
