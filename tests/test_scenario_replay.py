"""Replay-agreement tests: every engine, every scenario family.

The subsystem's core promise — a scenario replays to *identical*
per-tick core maps no matter which engine runs it, whether it was
generated live or loaded from a recorded trace, and whether it is
driven locally or through the async serving front.
"""

import asyncio

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import scenarios as sc
from repro.core.decomposition import core_numbers
from repro.engine import DEFAULT_ENGINE
from repro.errors import ScenarioError
from repro.service import CoreClient, CoreServer, CoreService
from repro.testing import tiny_scenario

FIXTURE = "tests/data/snap_temporal_sample.txt"

FAMILIES = sc.available_scenarios()

#: The agreement matrix: the paper's engine and the simplified variant.
ENGINES = ("order", "order-simplified")


class TestCrossEngineAgreement:
    @pytest.mark.parametrize("name", FAMILIES)
    def test_families_agree_across_engines(self, name):
        scenario = tiny_scenario(name, seed=11)
        reports = sc.replay_all(
            scenario, ENGINES, keep_cores=True, check=True
        )
        assert set(reports) == set(ENGINES)
        for report in reports.values():
            assert report.ticks == scenario.n_ticks
            assert report.ops == scenario.n_ops

    def test_snap_fixture_agrees_across_engines(self):
        scenario = sc.scenario_from_snap(FIXTURE, count=8)
        sc.replay_all(scenario, ENGINES, keep_cores=True, check=True)

    def test_final_cores_match_from_scratch_decomposition(self):
        scenario = tiny_scenario("flash-crowd", seed=5)
        report = sc.replay(scenario)
        graph = scenario.base_graph()
        for kind, (u, v) in scenario.plan():
            if kind == "insert":
                graph.add_edge(u, v)
            else:
                graph.remove_edge(u, v)
        assert report.final_cores == core_numbers(graph)

    @settings(
        max_examples=12, deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        name=st.sampled_from(FAMILIES),
        seed=st.integers(0, 10_000),
    )
    def test_agreement_holds_for_any_seed(self, name, seed):
        sc.replay_all(
            tiny_scenario(name, seed=seed), ENGINES, keep_cores=True
        )


class TestRecordedVsLive:
    @pytest.mark.parametrize("name", FAMILIES)
    def test_trace_replay_equals_live_replay(self, name):
        """Recording and reloading must not change a single checkpoint."""
        live = tiny_scenario(name, seed=23)
        recorded = sc.loads(sc.dumps(live))
        a = sc.replay(live, keep_cores=True)
        b = sc.replay(recorded, keep_cores=True)
        assert a.digests() == b.digests()
        assert [cp.cores for cp in a.checkpoints] == [
            cp.cores for cp in b.checkpoints
        ]

    def test_trace_file_round_trip_through_service(self, tmp_path):
        scenario = sc.scenario_from_snap(FIXTURE, count=8)
        path = tmp_path / "fixture.trace"
        sc.record(scenario, path)
        assert sc.replay(sc.load(path)).digests() == (
            sc.replay(scenario).digests()
        )


class TestReplayDriver:
    def test_report_counts_and_summary(self):
        scenario = tiny_scenario("burst", seed=3)
        report = sc.replay(scenario)
        inserts, removes = scenario.counts()
        assert (report.inserts, report.removes) == (inserts, removes)
        summary = report.summary()
        assert summary["scenario"] == "burst"
        assert summary["engine"] == DEFAULT_ENGINE
        assert summary["final_digest"] == report.checkpoints[-1].digest

    def test_adopted_service_is_left_open(self):
        scenario = tiny_scenario("mixed", seed=3)
        service = CoreService.open(scenario.base_graph())
        report = sc.replay(scenario, service=service)
        assert report.engine == DEFAULT_ENGINE
        assert service.cores() == report.final_cores  # still open
        service.close()

    def test_digest_distinguishes_different_maps(self):
        assert sc.core_digest({0: 1}) != sc.core_digest({0: 2})
        assert sc.core_digest({0: 1, 1: 2}) == sc.core_digest(
            {1: 2, 0: 1}
        )

    def test_checkpoints_omit_cores_by_default(self):
        report = sc.replay(tiny_scenario("mixed", seed=1))
        assert all(cp.cores is None for cp in report.checkpoints)

    def test_check_agreement_flags_divergence(self):
        a = sc.replay(tiny_scenario("burst", seed=1))
        b = sc.replay(tiny_scenario("burst", seed=2))
        with pytest.raises(ScenarioError, match="disagreement"):
            sc.check_agreement([a, b])

    def test_check_agreement_flags_tick_count_skew(self):
        a = sc.replay(tiny_scenario("burst", seed=1))
        b = sc.replay(tiny_scenario("sliding-window", seed=1))
        with pytest.raises(ScenarioError, match="ticks"):
            sc.check_agreement([a, b])

    def test_check_agreement_trivial_cases(self):
        sc.check_agreement([])
        sc.check_agreement([sc.replay(tiny_scenario("mixed", seed=1))])


class TestServerReplay:
    def test_client_replay_matches_local(self, tmp_path):
        """The same scenario through the async serving front reaches
        the same per-tick digests as a local service replay."""
        scenario = tiny_scenario("shard-merge-storm", seed=7)
        local = sc.replay(scenario)

        async def drive():
            async with CoreServer(log_dir=tmp_path) as server:
                host, port = await server.start()
                async with await CoreClient.connect(
                    host, port, session="replay"
                ) as client:
                    return await sc.replay_via_client(scenario, client)

        remote = asyncio.run(asyncio.wait_for(drive(), 60))
        assert remote.engine == "client"
        assert remote.digests() == local.digests()
        assert remote.final_cores == local.final_cores
