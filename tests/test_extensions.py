"""Unit tests for the extension modules: RMAT/forest-fire generators,
METIS IO, validation utilities, visualization, and the scan ablation."""

import random

import pytest

from repro.analysis.validation import (
    diff_cores,
    validate_against_reference,
    validate_maintainer,
)
from repro.applications.visualization import (
    render_fingerprint,
    render_shell_histogram,
    shell_layout,
)
from repro.core.ablation import ScanningOrderedCoreMaintainer, order_insert_scan
from repro.core.decomposition import core_numbers
from repro.core.maintainer import OrderedCoreMaintainer
from repro.graphs import generators
from repro.graphs import io as gio
from repro.graphs.undirected import DynamicGraph
from repro.naive.maintainer import NaiveCoreMaintainer

from helpers import random_gnm


class TestRmat:
    def test_simple_and_deterministic(self):
        edges = generators.rmat(8, edge_factor=4, seed=1)
        assert edges == generators.rmat(8, edge_factor=4, seed=1)
        seen = set()
        for u, v in edges:
            assert u != v
            assert (u, v) not in seen
            seen.add((u, v))

    def test_vertex_range(self):
        edges = generators.rmat(6, edge_factor=4, seed=2)
        assert all(0 <= u < 64 and 0 <= v < 64 for u, v in edges)

    def test_skewed_degrees(self):
        g = DynamicGraph.from_edges(generators.rmat(9, edge_factor=6, seed=3))
        assert g.max_degree() > 3 * g.average_degree()

    def test_probability_validation(self):
        with pytest.raises(ValueError):
            generators.rmat(5, a=0.5, b=0.3, c=0.3)


class TestForestFire:
    def test_connected_growth(self):
        edges = generators.forest_fire(150, forward_prob=0.35, seed=4)
        g = DynamicGraph.from_edges(edges)
        assert g.n == 150
        assert g.connected_component(0) == set(g.vertices())

    def test_densification_with_prob(self):
        sparse = generators.forest_fire(150, forward_prob=0.1, seed=5)
        dense = generators.forest_fire(150, forward_prob=0.5, seed=5)
        assert len(dense) > len(sparse)

    def test_prob_validation(self):
        with pytest.raises(ValueError):
            generators.forest_fire(10, forward_prob=1.0)

    def test_deterministic(self):
        assert generators.forest_fire(60, seed=6) == generators.forest_fire(
            60, seed=6
        )


class TestMetisIO:
    def test_roundtrip(self, tmp_path):
        g = random_gnm(20, 40, seed=1)
        path = tmp_path / "g.metis"
        assert gio.write_metis(path, g) == 20
        g2 = gio.read_metis(path)
        assert g2.n == g.n and g2.m == g.m
        # Vertices are relabelled 1..n in sorted order; degrees must match.
        original = sorted(g.degree(v) for v in g.vertices())
        restored = sorted(g2.degree(v) for v in g2.vertices())
        assert original == restored

    def test_header_first_line(self, tmp_path):
        g = DynamicGraph([(1, 2), (2, 3)])
        path = tmp_path / "g.metis"
        gio.write_metis(path, g)
        assert path.read_text().splitlines()[0] == "3 2"

    def test_edge_count_mismatch_detected(self, tmp_path):
        path = tmp_path / "bad.metis"
        path.write_text("2 5\n2\n1\n")
        with pytest.raises(ValueError):
            gio.read_metis(path)

    def test_weighted_format_rejected(self, tmp_path):
        path = tmp_path / "weighted.metis"
        path.write_text("2 1 011\n2\n1\n")
        with pytest.raises(ValueError):
            gio.read_metis(path)

    def test_isolated_vertices_preserved(self, tmp_path):
        g = DynamicGraph([(1, 2)], vertices=[1, 2, 3])
        path = tmp_path / "iso.metis"
        gio.write_metis(path, g)
        assert gio.read_metis(path).n == 3


class TestValidation:
    def test_clean_engine_validates(self, small_random_graph):
        engine = OrderedCoreMaintainer(small_random_graph)
        report = validate_maintainer(engine)
        assert report.ok
        report.raise_if_invalid()  # no-op when ok

    def test_detects_core_corruption(self, triangle_graph):
        engine = NaiveCoreMaintainer(triangle_graph)
        engine._core[0] = 99
        report = validate_maintainer(engine)
        assert not report.ok
        assert report.core_mismatches[0] == (99, 2)
        with pytest.raises(AssertionError):
            report.raise_if_invalid()

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


class TestVisualization:
    def test_shell_layout_radii(self, fig3_graph):
        core = core_numbers(fig3_graph)
        layout = shell_layout(core, seed=1)
        assert set(layout) == set(core)
        # Higher coreness means closer to the origin on average.
        def mean_radius(k):
            rs = [
                (x * x + y * y) ** 0.5
                for v, (x, y) in layout.items()
                if core[v] == k
            ]
            return sum(rs) / len(rs)

        assert mean_radius(3) < mean_radius(1)

    def test_layout_deterministic(self, triangle_graph):
        core = core_numbers(triangle_graph)
        assert shell_layout(core, seed=5) == shell_layout(core, seed=5)

    def test_histogram_contains_all_shells(self, fig3_graph):
        core = core_numbers(fig3_graph)
        text = render_shell_histogram(core)
        assert "k=1" in text and "k=2" in text and "k=3" in text
        assert "(empty graph)" == render_shell_histogram({})

    def test_fingerprint_shape(self, fig3_graph):
        core = core_numbers(fig3_graph)
        text = render_fingerprint(core, rows=11, cols=23, seed=2)
        lines = text.splitlines()
        assert len(lines) == 11
        assert all(len(line) == 23 for line in lines)
        assert "3" in text  # the 3-core shows up
        assert render_fingerprint({}) == "(empty graph)"

    def test_fingerprint_glyph_saturation(self):
        core = {i: 12 for i in range(30)}
        assert "*" in render_fingerprint(core, rows=7, cols=7, seed=0)


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
