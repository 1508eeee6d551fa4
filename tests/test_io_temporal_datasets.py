"""Unit tests for edge-list IO, temporal streams and the dataset registry."""

import gzip

import pytest

from repro.errors import DatasetError, EdgeListFormatError, WorkloadError
from repro.graphs import io as gio
from repro.graphs.datasets import (
    DATASETS,
    dataset_names,
    load_dataset,
)
from repro.graphs.temporal import TemporalEdgeStream


class TestEdgeListIO:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "g.txt"
        edges = [(1, 2), (2, 3), (3, 4)]
        assert gio.write_edge_list(path, edges) == 3
        assert gio.read_edge_list(path) == edges

    def test_header_written_as_comments(self, tmp_path):
        path = tmp_path / "g.txt"
        gio.write_edge_list(path, [(1, 2)], header="hello\nworld")
        text = path.read_text()
        assert text.startswith("# hello\n# world\n")
        assert gio.read_edge_list(path) == [(1, 2)]

    def test_comments_and_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("# snap comment\n% konect comment\n\n1\t2\n3 4\n")
        assert gio.read_edge_list(path) == [(1, 2), (3, 4)]

    def test_duplicates_and_loops_dropped(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("1 2\n2 1\n3 3\n1 2\n")
        assert gio.read_edge_list(path) == [(1, 2)]

    def test_gzip_roundtrip(self, tmp_path):
        path = tmp_path / "g.txt.gz"
        gio.write_edge_list(path, [(5, 6)])
        with gzip.open(path, "rt") as handle:
            assert "5\t6" in handle.read()
        assert gio.read_edge_list(path) == [(5, 6)]

    def test_temporal_read_sorts_by_time(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text("1 2 1 300\n3 4 1 100\n5 6 1 200\n")
        stream = gio.read_temporal_edge_list(path)
        assert stream.edges() == [(3, 4), (5, 6), (1, 2)]

    def test_temporal_read_rejects_nan_timestamp(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text("1 2 1 100\n3 4 1 nan\n")
        with pytest.raises(EdgeListFormatError, match=":2"):
            gio.read_temporal_edge_list(path)

    def test_temporal_read_without_time_column(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text("1 2\n3 4\n")
        stream = gio.read_temporal_edge_list(path)
        assert stream.edges() == [(1, 2), (3, 4)]


class TestTemporalEdgeStream:
    def test_from_edges_uses_positions_as_time(self):
        s = TemporalEdgeStream.from_edges([(1, 2), (3, 4)])
        assert s[0] == (1, 2, 0.0)
        assert s[1] == (3, 4, 1.0)
        assert len(s) == 2

    def test_nan_timestamp_rejected(self):
        with pytest.raises(WorkloadError):
            TemporalEdgeStream([(1, 2, 0.0), (3, 4, float("nan"))])

    def test_unsorted_input_gets_sorted(self):
        s = TemporalEdgeStream([(1, 2, 5.0), (3, 4, 1.0)])
        assert s.edges() == [(3, 4), (1, 2)]

    def test_latest(self):
        s = TemporalEdgeStream.from_edges([(1, 2), (3, 4), (5, 6)])
        assert s.latest(2) == [(3, 4), (5, 6)]
        assert s.latest(0) == []

    def test_latest_too_many_raises(self):
        s = TemporalEdgeStream.from_edges([(1, 2)])
        with pytest.raises(WorkloadError):
            s.latest(5)

    def test_split_at(self):
        s = TemporalEdgeStream.from_edges([(1, 2), (3, 4), (5, 6)])
        history, future = s.split_at(1)
        assert history == [(1, 2)]
        assert future == [(3, 4), (5, 6)]

    def test_split_out_of_range(self):
        with pytest.raises(WorkloadError):
            TemporalEdgeStream([]).split_at(1)

    def test_graph_before_keeps_future_vertices(self):
        s = TemporalEdgeStream.from_edges([(1, 2), (3, 4)])
        g = s.graph_before(1)
        assert g.m == 1
        assert g.has_vertex(3) and g.has_vertex(4)

    def test_graph_materializes_all(self):
        s = TemporalEdgeStream.from_edges([(1, 2), (3, 4)])
        assert s.graph().m == 2


class TestTicks:
    def test_identical_timestamps_form_one_tick(self):
        s = TemporalEdgeStream(
            [(1, 2, 0.0), (3, 4, 0.0), (5, 6, 1.0), (7, 8, 1.0), (9, 10, 5.0)]
        )
        assert list(s.ticks()) == [
            (0.0, [(1, 2), (3, 4)]),
            (1.0, [(5, 6), (7, 8)]),
            (5.0, [(9, 10)]),
        ]

    def test_every_buckets_dense_index_timestamps(self):
        s = TemporalEdgeStream.from_edges(
            [(i, i + 1) for i in range(10)]
        )  # timestamps 0..9
        ticks = list(s.ticks(every=4.0))
        assert [t for t, _ in ticks] == [3.0, 7.0, 9.0]
        assert [len(edges) for _, edges in ticks] == [4, 4, 2]
        # Nothing dropped, order preserved.
        assert [e for _, es in ticks for e in es] == s.edges()

    def test_tick_timestamps_strictly_increase(self):
        s = TemporalEdgeStream.from_edges([(i, i + 1) for i in range(30)])
        stamps = [t for t, _ in s.ticks(every=7.0)]
        assert stamps == sorted(set(stamps))

    def test_empty_stream_and_bad_width(self):
        assert list(TemporalEdgeStream([]).ticks()) == []
        with pytest.raises(WorkloadError, match="tick width"):
            list(TemporalEdgeStream([(1, 2, 0.0)]).ticks(every=0))

    def test_ticks_feed_observe_many_one_commit_per_tick(self):
        from repro.streaming import SlidingWindowCoreMonitor

        edges = [(0, 1), (1, 2), (2, 0), (0, 3), (1, 3), (2, 3)]
        s = TemporalEdgeStream.from_edges(edges)
        monitor = SlidingWindowCoreMonitor(window=100.0)
        ticks = list(s.ticks(every=3.0))
        for t, group in ticks:
            monitor.observe_many(group, t)
        # One insert commit per tick — same-tick arrivals land together.
        assert monitor.service.last_receipt.receipt_id == len(ticks) == 2
        assert monitor.stats.arrivals == len(edges)
        assert monitor.core_of(3) == 3


class TestDatasets:
    def test_registry_has_the_11_paper_datasets(self):
        assert len(DATASETS) == 11
        assert set(dataset_names()) == {
            "facebook", "youtube", "dblp", "patents", "orkut",
            "livejournal", "gowalla", "ca", "pokec", "berkstan", "google",
        }

    def test_unknown_dataset_raises(self):
        with pytest.raises(DatasetError):
            load_dataset("nope")

    def test_deterministic(self):
        a = load_dataset("gowalla", scale=0.25, seed=5)
        b = load_dataset("gowalla", scale=0.25, seed=5)
        assert a.edges == b.edges

    def test_scale_grows_graph(self):
        small = load_dataset("google", scale=0.2, seed=1)
        large = load_dataset("google", scale=0.5, seed=1)
        assert large.graph().n > small.graph().n

    def test_temporal_flags(self):
        assert DATASETS["facebook"].temporal
        assert DATASETS["dblp"].temporal
        assert not DATASETS["patents"].temporal

    @pytest.mark.parametrize("name", dataset_names())
    def test_every_dataset_loads_small(self, name):
        data = load_dataset(name, scale=0.12, seed=9)
        graph = data.graph()
        assert graph.n > 10 and graph.m > 10
        paper = data.spec.paper
        # The stand-in's average degree should be in the ballpark of the
        # published one (same order of magnitude; shape is what matters).
        assert graph.average_degree() > paper.avg_deg / 4
        assert graph.average_degree() < paper.avg_deg * 4

    def test_stream_matches_edges(self):
        data = load_dataset("facebook", scale=0.15, seed=2)
        assert data.stream().edges() == data.edges
