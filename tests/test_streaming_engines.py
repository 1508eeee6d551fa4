"""Sliding-window monitor: engine selection and edge-identity hardening."""

import pytest

from repro.core.decomposition import core_numbers
from repro.naive.maintainer import NaiveCoreMaintainer
from repro.engine.batch import normalize_edge
from repro.streaming import SlidingWindowCoreMonitor
from repro.traversal.maintainer import TraversalCoreMaintainer


class TestEngineSelection:
    @pytest.mark.parametrize("engine", ["order", "trav-2", "naive"])
    def test_all_engines_drive_the_window(self, engine):
        monitor = SlidingWindowCoreMonitor(window=3.0, engine=engine)
        stream = [(0, 1), (1, 2), (2, 0), (2, 3), (3, 0), (0, 4)]
        for t, (a, b) in enumerate(stream):
            monitor.observe(a, b, float(t))
        assert monitor.service.engine.core_numbers() == core_numbers(
            monitor.service.engine.graph
        )
        monitor.drain()
        assert monitor.live_edges() == 0
        assert monitor.stats.arrivals == len(stream)

    def test_engine_classes(self):
        assert isinstance(
            SlidingWindowCoreMonitor(window=1, engine="naive").service.engine,
            NaiveCoreMaintainer,
        )
        trav = SlidingWindowCoreMonitor(window=1, engine="trav-3").service.engine
        assert isinstance(trav, TraversalCoreMaintainer) and trav.h == 3

    def test_engines_agree_over_one_stream(self):
        stream = [(i % 7, (i * 3 + 1) % 7) for i in range(25)]
        stream = [(a, b) for a, b in stream if a != b]
        cores = {}
        for engine in ("order", "naive"):
            monitor = SlidingWindowCoreMonitor(window=6.0, engine=engine)
            for t, (a, b) in enumerate(stream):
                monitor.observe(a, b, float(t))
            cores[engine] = {
                v: monitor.core_of(v) for v in monitor.service.engine.graph.vertices()
            }
        assert cores["order"] == cores["naive"]

    def test_observe_many_batches_one_tick(self):
        monitor = SlidingWindowCoreMonitor(window=10.0, engine="naive")
        monitor.observe_many([(0, 1), (1, 2), (2, 0), (1, 2)], t=0.0)
        # Three distinct edges inserted with ONE recomputation; the
        # duplicate in the same tick counts as a refresh.
        assert monitor.service.engine.rebuilds == 1
        assert monitor.stats.arrivals == 3
        assert monitor.stats.refreshes == 1
        assert monitor.core_of(0) == 2

    def test_invalid_pair_does_not_corrupt_the_monitor(self):
        from repro.errors import SelfLoopError

        monitor = SlidingWindowCoreMonitor(window=2.0)
        with pytest.raises(SelfLoopError):
            monitor.observe_many([(0, 1), (2, 2)], t=0.0)
        # Nothing was committed: no half-registered edges waiting to
        # expire against an engine that never saw them.
        assert monitor.live_edges() == 0
        monitor.observe(0, 1, 0.5)
        assert monitor.advance_to(10.0) == 1

    def test_expiry_is_batched(self):
        monitor = SlidingWindowCoreMonitor(window=1.0, engine="naive")
        monitor.observe_many([(0, 1), (1, 2), (2, 0)], t=0.0)
        before = monitor.service.engine.rebuilds
        assert monitor.advance_to(5.0) == 3  # all expire in one batch
        assert monitor.service.engine.rebuilds == before + 1
        assert monitor.stats.expiries == 3


class TestNormHardening:
    def test_comparable_vertices_use_their_own_order(self):
        # repr ordering would yield (10, 2) since "10" < "2".
        assert normalize_edge(10, 2) == (2, 10)
        assert normalize_edge(2, 10) == (2, 10)

    def test_mixed_type_vertices_are_stable(self):
        assert normalize_edge(1, "b") == normalize_edge("b", 1)
        assert normalize_edge((1, 2), "x") == normalize_edge("x", (1, 2))

    def test_mixed_type_stream_keeps_one_edge_identity(self):
        monitor = SlidingWindowCoreMonitor(window=10.0)
        monitor.observe(1, "b", 0.0)
        monitor.observe("b", 1, 1.0)  # same tie, other orientation
        assert monitor.live_edges() == 1
        assert monitor.stats.arrivals == 1
        assert monitor.stats.refreshes == 1
        monitor.drain()
        assert monitor.live_edges() == 0

    def test_incomparable_same_type_vertices(self):
        # Sets don't define a total order; the (type, repr) key decides.
        u, v = frozenset({1}), frozenset({2})
        assert normalize_edge(u, v) == normalize_edge(v, u)
