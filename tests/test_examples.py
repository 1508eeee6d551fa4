"""The examples run in-process through their ``main()``.

CI's ``example`` job runs each script as a program; this runs the same
scripts under the test suite, so a deleted or renamed API they call
fails here first.  ``algorithm_comparison`` is left to the CI job: it
reads ``sys.argv`` and times the naive engine on a full dataset.  The
helpers the community and road-network examples define are checked on
the paper's Fig. 3 graph.
"""

import importlib.util
from pathlib import Path

import pytest

from repro import CoreService, core_numbers
from repro.analysis.kcore_views import core_spectrum, degeneracy
from repro.graphs.undirected import DynamicGraph

from helpers import u

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"

#: Every example except ``algorithm_comparison``.
RUN_IN_PROCESS = (
    "batch_pipeline",
    "index_checkpointing",
    "quickstart",
    "road_network_resilience",
    "sliding_window_monitor",
    "social_stream_communities",
    "temporal_collaboration",
)


def _load(name):
    spec = importlib.util.spec_from_file_location(
        f"example_{name}", EXAMPLES / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_example_is_covered():
    scripts = {path.stem for path in EXAMPLES.glob("*.py")}
    assert scripts == set(RUN_IN_PROCESS) | {"algorithm_comparison"}


@pytest.mark.parametrize("name", RUN_IN_PROCESS)
def test_example_runs(name, capsys):
    _load(name).main()
    assert capsys.readouterr().out


def test_road_network_reads_follow_the_failures():
    """Every failure commits through the service, so the final reads
    are those of a from-scratch decomposition of the final graph."""
    sessions = _load("road_network_resilience").main()
    assert set(sessions) == {"random", "targeted"}
    for svc in sessions.values():
        truth = core_numbers(svc.graph)
        assert svc.cores() == truth
        assert svc.spectrum() == core_spectrum(truth)
        assert svc.degeneracy() == degeneracy(truth)


class TestCommunityHelpers:
    """``social_stream_communities``' community search over the service."""

    @pytest.fixture
    def example(self):
        return _load("social_stream_communities")

    def test_community_within_kcore(self, example, fig3_graph):
        svc = CoreService.open(fig3_graph)
        assert example.community(svc, 6, 3) == {6, 7, 8, 9}
        # At k=2 the component extends through v2-v7 to the pentagon.
        assert example.community(svc, 6, 2) == set(range(1, 10))

    def test_disconnected_kcores_are_separate_communities(
        self, example, fig3_graph
    ):
        svc = CoreService.open(fig3_graph)
        assert example.community(svc, 10, 3) == {10, 11, 12, 13}

    def test_query_below_k_returns_empty(self, example, fig3_graph):
        svc = CoreService.open(fig3_graph)
        assert example.community(svc, u(0), 2) == set()

    def test_unknown_user(self, example, triangle_graph):
        svc = CoreService.open(triangle_graph)
        assert example.community(svc, 99, 1) == set()
        with pytest.raises(KeyError):
            example.tightest_community(svc, 99, 1)

    def test_tightest_community(self, example, fig3_graph):
        svc = CoreService.open(fig3_graph)
        assert example.tightest_community(svc, 6, min_size=2) == (
            3, {6, 7, 8, 9}
        )

    def test_tightest_community_falls_back(self, example):
        svc = CoreService.open(DynamicGraph(vertices=[1]))
        assert example.tightest_community(svc, 1, min_size=2) == (0, {1})

    def test_community_grows_with_commits(self, example, triangle_graph):
        svc = CoreService.open(triangle_graph)
        sizes = []
        for e in [(3, 0), (3, 4), (4, 0), (4, 2)]:
            svc.insert(*e)
            sizes.append(len(example.community(svc, 0, 2)))
        # Closing the square pulls 3 into the 2-core, then 4 follows.
        assert sizes == [4, 4, 5, 5]


class TestFailurePlan:
    """``road_network_resilience``' choice of edges to fail."""

    def test_targeted_failures_hit_the_dense_core_first(self, fig3_graph):
        svc = CoreService.open(fig3_graph)
        plan = _load("road_network_resilience").failure_plan(
            svc, 5, "targeted"
        )
        assert len(plan) == 5
        for edge in plan:
            # The 3-core is the two K4s on v6..v13.
            assert set(edge) <= set(range(6, 14))

    def test_random_failures_are_seeded_and_capped(self, triangle_graph):
        example = _load("road_network_resilience")
        svc = CoreService.open(triangle_graph)
        plan = example.failure_plan(svc, 100, "random")
        assert sorted(plan) == sorted(svc.graph.edges())
        assert example.failure_plan(svc, 100, "random") == plan
        assert example.failure_plan(svc, 2, "random") == plan[:2]
