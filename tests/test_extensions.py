"""Unit tests for the extension modules: validation utilities and the
scan ablation."""

import random

import pytest

from repro.analysis.validation import (
    diff_cores,
    validate_against_reference,
    validate_maintainer,
)
from repro.core.ablation import ScanningOrderedCoreMaintainer, order_insert_scan
from repro.core.maintainer import OrderedCoreMaintainer
from repro.graphs.undirected import DynamicGraph
from repro.naive.maintainer import NaiveCoreMaintainer


class TestValidation:
    def test_clean_engine_validates(self, small_random_graph):
        engine = OrderedCoreMaintainer(small_random_graph)
        report = validate_maintainer(engine)
        assert report.ok

    def test_detects_core_corruption(self, triangle_graph):
        engine = NaiveCoreMaintainer(triangle_graph)
        engine._core[0] = 99
        report = validate_maintainer(engine)
        assert not report.ok
        assert report.core_mismatches[0] == (99, 2)

    def test_detects_index_corruption(self, triangle_graph):
        engine = OrderedCoreMaintainer(triangle_graph)
        engine.korder.deg_plus[0] += 1
        report = validate_maintainer(engine)
        assert not report.ok
        assert report.index_errors

    def test_diff_cores_both_directions(self):
        assert diff_cores({1: 2}, {1: 3}) == {1: (2, 3)}
        assert diff_cores({1: 2, 9: 1}, {1: 2}) == {9: (1, -1)}
        assert diff_cores({1: 2}, {1: 2, 9: 1}) == {9: (-1, 1)}

    def test_reference_graph_comparison(self, triangle_graph):
        engine = OrderedCoreMaintainer(triangle_graph.copy())
        ok = validate_against_reference(engine, triangle_graph)
        assert ok.ok
        other = triangle_graph.copy()
        other.add_edge(0, 3)
        bad = validate_against_reference(engine, other)
        assert not bad.ok


class TestScanAblation:
    def test_matches_jump_implementation(self):
        rng = random.Random(7)
        n = 30
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        rng.shuffle(pairs)
        base = pairs[:80]
        scan = ScanningOrderedCoreMaintainer(
            DynamicGraph(base, vertices=range(n))
        )
        jump = OrderedCoreMaintainer(
            DynamicGraph(base, vertices=range(n)), audit=True
        )
        for e in pairs[80:200]:
            rs = scan.insert_edge(*e)
            rj = jump.insert_edge(*e)
            assert set(rs.changed) == set(rj.changed)
            assert rs.visited == rj.visited
            assert scan.core_numbers() == jump.core_numbers()
        scan.check()

    def test_scanned_at_least_visited(self):
        scan = ScanningOrderedCoreMaintainer(
            DynamicGraph([(0, 1), (1, 2), (2, 3)])
        )
        result = scan.insert_edge(3, 0)
        assert set(result.changed) == {0, 1, 2, 3}
        assert scan.total_scanned >= result.visited

    def test_scan_low_level_roundtrip(self, triangle_graph):
        from repro.core.decomposition import korder_decomposition
        from repro.core.korder import KOrder

        d = korder_decomposition(triangle_graph, policy="small")
        ko = KOrder.from_decomposition(d)
        core = dict(d.core)
        v_star, k, visited, evicted, scanned = order_insert_scan(
            triangle_graph, ko, core, 3, 0
        )
        assert v_star == [3]
        assert k == 1
        assert evicted == 0
        assert scanned >= visited >= 1
        ko.audit(triangle_graph, core)

    def test_removals_use_the_order_engines_path(self, triangle_graph):
        scan = ScanningOrderedCoreMaintainer(triangle_graph)
        result = scan.remove_edge(0, 1)
        assert set(result.changed) == {0, 1, 2}
        scan.check()

    @pytest.mark.parametrize("seed", range(4))
    def test_mixed_updates_match_order_engine_under_audit(self, seed):
        """Scan inserts and shared removals agree with ``order`` op by op
        (including the Algorithm 3 evictions), with the full index
        audited after every update."""
        rng = random.Random(seed)
        n = 24
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        rng.shuffle(pairs)
        live, spare = pairs[:60], pairs[60:]
        scan = ScanningOrderedCoreMaintainer(
            DynamicGraph(live, vertices=range(n)), audit=True
        )
        order = OrderedCoreMaintainer(DynamicGraph(live, vertices=range(n)))
        evicted = 0
        for _ in range(300):
            if spare and (not live or rng.random() < 0.55):
                edge = spare.pop(rng.randrange(len(spare)))
                rs, ro = scan.insert_edge(*edge), order.insert_edge(*edge)
                live.append(edge)
            else:
                edge = live.pop(rng.randrange(len(live)))
                rs, ro = scan.remove_edge(*edge), order.remove_edge(*edge)
                spare.append(edge)
            assert rs.changed == ro.changed
            assert rs.visited == ro.visited
            assert rs.evicted == ro.evicted
            evicted += rs.evicted
        assert scan.core_numbers() == order.core_numbers()
        assert dict(scan.mcd) == dict(order.mcd)
        assert scan.total_scanned > 0
        # These streams do evict, so the evicted equality above bites.
        assert evicted > 0
        scan.check()

    def test_ablation_experiment(self):
        from repro.bench.experiments import ablation_jump

        result = ablation_jump("ca", n_updates=40, scale=0.15, seed=3)
        assert result.scanned >= result.visited
        assert result.steps_saved == result.scanned - result.visited
