"""Unit tests for the analysis package (subcore/purecore/ordercore,
distributions, k-core views, metrics)."""

import math
import random

import pytest

from repro.analysis.distributions import (
    bucket_proportions,
    cumulative_distribution,
    percentile,
    ratio_sum,
)
from repro.analysis.kcore_views import KCoreView, core_spectrum, degeneracy
from repro.analysis.metrics import UpdateLog
from repro.analysis.subcore import order_core, pure_core, sub_core
from repro.engine.base import UpdateResult
from repro.core.decomposition import core_numbers, korder_decomposition
from repro.core.korder import KOrder
from repro.core.maintainer import compute_mcd

from helpers import u


class TestStructuralSets:
    def test_subcores_of_fig3(self, fig3_graph):
        core = core_numbers(fig3_graph)
        # Example 3.1: {v1..v5} is the unique 2-subcore; two 3-subcores.
        assert sub_core(fig3_graph, core, 1) == {1, 2, 3, 4, 5}
        assert sub_core(fig3_graph, core, 6) == {6, 7, 8, 9}
        assert sub_core(fig3_graph, core, 10) == {10, 11, 12, 13}
        # The chain u_0..u_50 (tail=50 spans 51 vertices) is one 1-subcore.
        assert len(sub_core(fig3_graph, core, u(0))) == 51

    def test_purecore_excludes_saturated(self, fig3_graph):
        core = core_numbers(fig3_graph)
        mcd = compute_mcd(fig3_graph, core)
        # K4 vertices have mcd == core == 3 (except v7 with its v2 link):
        # the purecore of v6 contains only vertices with slack.
        pc = pure_core(fig3_graph, core, mcd, 6)
        assert 6 in pc
        assert pc <= sub_core(fig3_graph, core, 6)

    def test_purecore_on_chain(self, fig3_graph):
        core = core_numbers(fig3_graph)
        mcd = compute_mcd(fig3_graph, core)
        # Chain interior all have mcd 2 > 1: the purecore spans the chain
        # except the tips (mcd == 1).
        pc = pure_core(fig3_graph, core, mcd, u(0))
        assert len(pc) >= 45

    def test_ordercore_bounds_vplus(self, small_random_graph):
        """Lemma 5.4: |V+| <= |oc(u)| (union with oc(v) at equal cores),
        measured against the maintainer's own evolving k-order."""
        from repro.core.maintainer import OrderedCoreMaintainer

        m = OrderedCoreMaintainer(small_random_graph, seed=0)
        rng = random.Random(0)
        vertices = sorted(small_random_graph.vertices())
        for _ in range(30):
            a, b = rng.sample(vertices, 2)
            if m.graph.has_edge(a, b):
                continue
            core = dict(m.core)
            # Root in the pre-insertion order/core state:
            if core[a] > core[b] or (
                core[a] == core[b] and m.korder.precedes(b, a)
            ):
                a, b = b, a
            reach = order_core(m.graph, m.korder, core, a)
            if core[a] == core[b]:
                # Lemma 5.4(2): the new edge extends forward reachability
                # into b's order core.
                reach = reach | order_core(m.graph, m.korder, core, b)
            result = m.insert_edge(a, b)
            assert result.visited <= len(reach)

    def test_ordercore_smaller_than_purecore_on_average(self):
        from repro.graphs.datasets import load_dataset

        data = load_dataset("patents", scale=0.25, seed=1)
        graph = data.graph()
        decomposition = korder_decomposition(graph, policy="small")
        korder = KOrder.from_decomposition(decomposition)
        core = decomposition.core
        mcd = compute_mcd(graph, core)
        rng = random.Random(2)
        sample = rng.sample(sorted(graph.vertices()), 60)
        oc_total = sum(
            len(order_core(graph, korder, core, v)) for v in sample
        )
        pc_total = sum(
            len(pure_core(graph, core, mcd, v)) for v in sample
        )
        assert oc_total < pc_total


class TestDistributions:
    def test_bucket_proportions_fig1_bounds(self):
        values = [1, 2, 3, 7, 50, 500, 5000]
        props = bucket_proportions(values)
        assert props == pytest.approx(
            [3 / 7, 1 / 7, 1 / 7, 1 / 7, 1 / 7]
        )

    def test_bucket_proportions_empty(self):
        assert bucket_proportions([]) == [0.0] * 5

    def test_bucket_proportions_sum_to_one(self):
        props = bucket_proportions(range(2000))
        assert math.isclose(sum(props), 1.0)

    def test_cumulative_distribution(self):
        xs, fr = cumulative_distribution([1, 1, 2, 5])
        assert xs == [1, 2, 5]
        assert fr == [0.5, 0.75, 1.0]

    def test_cumulative_distribution_empty(self):
        assert cumulative_distribution([]) == ([], [])

    def test_ratio_sum(self):
        assert ratio_sum([10, 20], [5, 5]) == 3.0
        assert ratio_sum([], []) == 1.0
        assert ratio_sum([5], [0]) == float("inf")

    def test_percentile(self):
        assert percentile([3, 1, 2], 0.0) == 1
        assert percentile([3, 1, 2], 1.0) == 3
        with pytest.raises(ValueError):
            percentile([], 0.5)
        with pytest.raises(ValueError):
            percentile([1], 1.5)


class TestKCoreViews:
    def test_degeneracy_and_spectrum(self, fig3_graph):
        core = core_numbers(fig3_graph)
        assert degeneracy(core) == 3
        spectrum = core_spectrum(core)
        assert spectrum[3] == 8 and spectrum[2] == 5

    def test_view_membership_over_a_plain_mapping(self, triangle_graph):
        core = core_numbers(triangle_graph)
        assert KCoreView(core, 2).vertices() == {0, 1, 2}
        assert KCoreView(core, 1).vertices() == {0, 1, 2, 3}
        assert 3 not in KCoreView(core, 2) and 99 not in KCoreView(core, 0)
        empty = KCoreView(core, 3)
        assert not empty and len(empty) == 0
        # The 1-shell is the 1-core less the 2-core.
        shell = KCoreView(core, 1).vertices() - KCoreView(core, 2).vertices()
        assert shell == {3} and core_spectrum(core)[1] == len(shell)

    def test_view_follows_its_mapping(self, triangle_graph):
        core = core_numbers(triangle_graph)
        view = KCoreView(core, 2)
        core[3] = 2
        assert 3 in view and len(view) == 4

    def test_view_subgraph_needs_a_graph(self, triangle_graph):
        core = core_numbers(triangle_graph)
        with pytest.raises(ValueError, match=r"KCoreView\(core, k, graph\)"):
            KCoreView(core, 2).subgraph()
        sub = KCoreView(core, 2, triangle_graph).subgraph()
        assert sub.n == 3 and sub.m == 3


class TestUpdateLog:
    def _result(self, visited, changed, kind="insert", k=1):
        return UpdateResult(kind, (0, 1), k, tuple(range(changed)), visited)

    def test_record_accumulates(self):
        log = UpdateLog(engine="x")
        log.record(self._result(5, 2), 0.5)
        log.record(self._result(3, 1), 0.25)
        assert len(log) == 2
        assert log.total_visited == 8
        assert log.total_changed == 3
        assert log.total_seconds == 0.75

    def test_ratio(self):
        log = UpdateLog()
        log.record(self._result(10, 2), 0.0)
        assert log.visited_to_changed_ratio() == 5.0

    def test_proportions(self):
        log = UpdateLog()
        for visited in (1, 5, 50, 5000):
            log.record(self._result(visited, 1), 0.0)
        assert log.visited_proportions() == [0.25, 0.25, 0.25, 0.0, 0.25]

    def test_extend_attributes_batch_time_once(self):
        log = UpdateLog()
        log.extend([self._result(1, 0), self._result(2, 0)], 1.0)
        assert log.total_seconds == 1.0
        assert len(log) == 2
