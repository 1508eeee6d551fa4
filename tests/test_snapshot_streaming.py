"""Unit tests for index snapshots and the sliding-window monitor."""

import json

import pytest

from repro.core.maintainer import OrderedCoreMaintainer
from repro.core.snapshot import (
    from_snapshot,
    load_snapshot,
    save_snapshot,
    to_snapshot,
)
from repro.errors import StaleIndexError, WorkloadError
from repro.graphs.undirected import DynamicGraph
from repro.streaming import SlidingWindowCoreMonitor

from helpers import random_gnm, v1_snapshot


def assert_same_graph(a, b):
    assert set(a.vertices()) == set(b.vertices())
    assert {frozenset(e) for e in a.edges()} == {frozenset(e) for e in b.edges()}


class TestSnapshot:
    def test_roundtrip_preserves_everything(self, small_random_graph):
        original = OrderedCoreMaintainer(small_random_graph, seed=1)
        restored = from_snapshot(to_snapshot(original))
        assert restored.name == original.name
        assert_same_graph(restored.graph, original.graph)
        assert restored.core_numbers() == original.core_numbers()
        # The index is rebuilt, not adopted: the k-order may differ, but
        # mcd is a function of the graph and the cores.
        assert dict(restored.mcd) == dict(original.mcd)
        restored.check()

    def test_restored_engine_keeps_working(self, triangle_graph):
        original = OrderedCoreMaintainer(triangle_graph, seed=1)
        restored = from_snapshot(to_snapshot(original))
        result = restored.insert_edge(3, 0)
        assert result.changed == (3,)
        restored.check()

    def test_file_roundtrip(self, tmp_path):
        engine = OrderedCoreMaintainer(random_gnm(20, 50, seed=2))
        path = tmp_path / "index.json"
        save_snapshot(engine, path)
        restored = load_snapshot(path)
        assert restored.core_numbers() == engine.core_numbers()

    def test_snapshot_is_json_serializable(self, triangle_graph):
        engine = OrderedCoreMaintainer(triangle_graph)
        snapshot = json.loads(json.dumps(to_snapshot(engine)))
        assert snapshot == {
            "version": 2,
            "engine": "order",
            "vertices": [0, 1, 2, 3],
            "edges": [[0, 1], [0, 2], [1, 2], [2, 3]],
        }

    def test_isolated_vertices_survive(self):
        engine = OrderedCoreMaintainer(DynamicGraph([(0, 1)], vertices=["x"]))
        engine.remove_edge(0, 1)
        restored = from_snapshot(json.loads(json.dumps(to_snapshot(engine))))
        assert restored.core_numbers() == {"x": 0, 0: 0, 1: 0}

    def test_sequence_field_of_older_snapshots_is_ignored(
        self, small_random_graph
    ):
        # Builds with a k-order backend switch wrote "sequence"; this
        # build keeps one backend, stops writing it and restores as is.
        original = OrderedCoreMaintainer(small_random_graph)
        snapshot = v1_snapshot(original)
        snapshot["sequence"] = "treap"
        restored = from_snapshot(snapshot)
        restored.check()
        assert restored.core_numbers() == original.core_numbers()

    def test_version_skew_names_both_versions(self):
        with pytest.raises(
            StaleIndexError,
            match=r"snapshot field 'version' is 99; "
            r"this build reads versions 1, 2",
        ):
            from_snapshot({"version": 99})

    def test_absent_version_reported_as_none(self):
        with pytest.raises(
            StaleIndexError, match=r"snapshot field 'version' is None"
        ):
            from_snapshot({"order": []})

    @pytest.mark.parametrize(
        "snapshot,field",
        [({"version": 1, "edges": []}, "order"),
         ({"version": 2, "edges": []}, "vertices"),
         ({"version": 1, "order": []}, "edges"),
         ({"version": 2, "vertices": []}, "edges")],
    )
    def test_missing_field_named(self, snapshot, field):
        with pytest.raises(
            StaleIndexError, match=rf"snapshot field '{field}' is not a list"
        ):
            from_snapshot(snapshot)

    def test_version_1_index_fields_are_ignored(self, triangle_graph):
        # Version 1 stored the index; this build rebuilds it, so damaged
        # index fields (the old audit's business) no longer matter.
        snapshot = v1_snapshot(OrderedCoreMaintainer(triangle_graph))
        snapshot["core"] = snapshot["core"][:-1]
        snapshot["deg_plus"] = [d + 1 for d in snapshot["deg_plus"]]
        del snapshot["mcd"]
        restored = from_snapshot(snapshot)
        restored.check()
        assert restored.core_numbers() == {0: 2, 1: 2, 2: 2, 3: 1}

    def test_version_1_order_carries_the_vertex_set(self):
        engine = OrderedCoreMaintainer(DynamicGraph([(0, 1)], vertices=["x"]))
        restored = from_snapshot(v1_snapshot(engine))
        assert restored.core_numbers() == {"x": 0, 0: 1, 1: 1}

    def test_unknown_engine_named(self, triangle_graph):
        snapshot = to_snapshot(OrderedCoreMaintainer(triangle_graph))
        snapshot["engine"] = "order-quantum"
        with pytest.raises(
            StaleIndexError,
            match=r"snapshot field 'engine' names unknown engine "
            r"'order-quantum'",
        ):
            from_snapshot(snapshot)

    @pytest.mark.parametrize("name", ["naive", "trav-2", "order"])
    def test_every_engine_restores(self, triangle_graph, name):
        snapshot = to_snapshot(OrderedCoreMaintainer(triangle_graph))
        snapshot["engine"] = name
        restored = from_snapshot(snapshot)
        assert restored.name == name
        assert restored.core_numbers() == {0: 2, 1: 2, 2: 2, 3: 1}

    @pytest.mark.parametrize(
        "damage",
        [lambda s: [s], lambda s: s["edges"].append(7),
         lambda s: s["edges"].append([1, 2, 3]),
         lambda s: s.update(vertices=5), lambda s: s.update(vertices=[[0]]),
         lambda s: s["edges"].append([0, 1]),
         lambda s: s["edges"].append([4, 4])],
        ids=["not-an-object", "edge-not-a-list", "edge-not-a-pair",
             "vertices-not-a-list", "unhashable-vertex", "duplicate-edge",
             "self-loop"],
    )
    def test_malformed_fields_are_stale_index(self, triangle_graph, damage):
        snapshot = to_snapshot(OrderedCoreMaintainer(triangle_graph))
        snapshot = damage(snapshot) or snapshot
        with pytest.raises(StaleIndexError):
            from_snapshot(snapshot)

    def test_snapshot_after_updates(self, small_random_graph):
        engine = OrderedCoreMaintainer(small_random_graph, seed=3)
        edges = list(engine.graph.edges())
        for e in edges[:10]:
            engine.remove_edge(*e)
        engine.insert_edge("x", "y")
        restored = from_snapshot(to_snapshot(engine))
        assert restored.core_numbers() == engine.core_numbers()
        restored.check()


class TestSlidingWindow:
    def test_window_validation(self):
        with pytest.raises(WorkloadError):
            SlidingWindowCoreMonitor(window=0)

    def test_nan_window_rejected(self):
        """A NaN window compares false with every time, so nothing
        would ever expire."""
        with pytest.raises(WorkloadError):
            SlidingWindowCoreMonitor(window=float("nan"))

    def test_nan_timestamp_rejected_without_state_change(self):
        """A NaN ``now`` would switch off the time-order check and keep
        every edge live forever."""
        monitor = SlidingWindowCoreMonitor(window=5)
        monitor.observe(0, 1, 1)
        with pytest.raises(WorkloadError):
            monitor.observe(1, 2, float("nan"))
        with pytest.raises(WorkloadError):
            monitor.advance_to(float("nan"))
        assert monitor.now == 1
        assert monitor.live_edges() == 1
        assert monitor.advance_to(100) == 1
        assert monitor.live_edges() == 0

    def test_arrivals_build_cores(self):
        monitor = SlidingWindowCoreMonitor(window=100)
        for t, (u, v) in enumerate([(0, 1), (1, 2), (2, 0)]):
            monitor.observe(u, v, t)
        assert monitor.core_of(0) == 2
        assert monitor.degeneracy() == 2
        assert monitor.live_edges() == 3

    def test_expiry_removes_edges(self):
        monitor = SlidingWindowCoreMonitor(window=5)
        monitor.observe(0, 1, 0)
        monitor.observe(1, 2, 1)
        monitor.observe(2, 0, 2)
        assert monitor.core_of(0) == 2
        removed = monitor.advance_to(6)  # first two edges expire
        assert removed == 2
        assert monitor.core_of(0) == 1  # only (2, 0) remains
        assert monitor.live_edges() == 1

    def test_refresh_extends_lifetime(self):
        monitor = SlidingWindowCoreMonitor(window=5)
        monitor.observe(0, 1, 0)
        monitor.observe(0, 1, 3)  # refresh, expiry now 8
        assert monitor.stats.refreshes == 1
        assert monitor.advance_to(6) == 0
        assert monitor.live_edges() == 1
        assert monitor.advance_to(9) == 1
        assert monitor.live_edges() == 0

    def test_out_of_order_events_rejected(self):
        monitor = SlidingWindowCoreMonitor(window=5)
        monitor.observe(0, 1, 10)
        with pytest.raises(WorkloadError):
            monitor.observe(1, 2, 9)
        with pytest.raises(WorkloadError):
            monitor.advance_to(1)

    def test_undirected_edge_normalization(self):
        monitor = SlidingWindowCoreMonitor(window=10)
        monitor.observe(1, 0, 0)
        monitor.observe(0, 1, 1)  # same edge, reversed
        assert monitor.stats.arrivals == 1
        assert monitor.stats.refreshes == 1

    def test_drain_empties_window(self):
        monitor = SlidingWindowCoreMonitor(window=3)
        for t in range(5):
            monitor.observe(t, t + 1, t)
        drained = monitor.drain()
        assert monitor.live_edges() == 0
        assert drained > 0
        assert all(c == 0 for c in monitor.service.engine.core_numbers().values())

    def test_matches_batch_ground_truth(self):
        """At any instant the window cores equal a fresh decomposition of
        the currently-live edge set."""
        from repro.core.decomposition import core_numbers

        events = [
            (0, 1, 0.0), (1, 2, 1.0), (2, 0, 2.0), (2, 3, 3.0),
            (3, 0, 4.0), (3, 1, 5.5), (4, 0, 7.0), (4, 1, 7.5),
        ]
        monitor = SlidingWindowCoreMonitor(window=4.0)
        live: dict = {}
        for u, v, t in events:
            monitor.observe(u, v, t)
            edge = (min(u, v), max(u, v))
            live[edge] = t + 4.0
            current = {e for e, exp in live.items() if exp > t}
            truth = core_numbers(DynamicGraph(sorted(current)))
            for vertex, k in truth.items():
                assert monitor.core_of(vertex) == k, (t, vertex)

    def test_stats_and_timeline(self):
        monitor = SlidingWindowCoreMonitor(window=2)
        monitor.observe(0, 1, 0)
        monitor.observe(1, 2, 1)
        monitor.advance_to(10)
        assert monitor.stats.arrivals == 2
        assert monitor.stats.expiries == 2
        assert len(monitor.stats.degeneracy_timeline) == 2
        assert monitor.now == 10
