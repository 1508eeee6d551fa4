"""Unit tests for the benchmark harness (workloads, runner, experiments,
reporting) and the benchmark suite's timing helper."""

import importlib.util
from pathlib import Path

import pytest

from repro.bench import experiments, reporting
from repro.bench.runner import run_mixed, run_updates
from repro.bench.workloads import (
    grouped_stream,
    make_workload,
    sample_edge_fraction,
    sample_vertex_fraction,
)
from repro.core.decomposition import core_numbers
from repro.engine import make_engine
from repro.errors import WorkloadError
from repro.graphs.datasets import load_dataset
from repro.scenarios.generators import interleaved_plan

SMALL = dict(scale=0.15, seed=3)


@pytest.fixture(scope="module")
def gowalla():
    return load_dataset("gowalla", **SMALL)


@pytest.fixture(scope="module")
def facebook():
    return load_dataset("facebook", **SMALL)


class TestWorkloads:
    def test_base_plus_updates_is_full(self, gowalla):
        w = make_workload(gowalla, 50, seed=1)
        assert len(w.update_edges) == 50
        assert len(w.base_edges) + 50 == len(gowalla.edges)
        assert w.full_graph().m == len(gowalla.edges)
        assert w.base_graph().m == len(w.base_edges)

    def test_base_graph_keeps_update_vertices(self, gowalla):
        w = make_workload(gowalla, 50, seed=1)
        base = w.base_graph()
        for u, v in w.update_edges:
            assert base.has_vertex(u) and base.has_vertex(v)

    def test_temporal_dataset_takes_latest(self, facebook):
        w = make_workload(facebook, 30, seed=1)
        assert w.update_edges == facebook.edges[-30:]

    def test_update_count_capped(self, gowalla):
        w = make_workload(gowalla, 10**9, seed=1)
        assert len(w.update_edges) == len(gowalla.edges) // 2

    def test_grouped_stream(self, gowalla):
        workload, groups = grouped_stream(gowalla, 5, 10, seed=2)
        assert len(groups) == 5
        assert all(len(g) == 10 for g in groups)
        flat = [e for g in groups for e in g]
        assert flat == workload.update_edges[: len(flat)]

    def test_interleaved_plan(self):
        plan = interleaved_plan(
            [(0, 1), (1, 2)], [(2, 3), (3, 4)], p=1.0, seed=0
        )
        inserts = [e for kind, e in plan if kind == "insert"]
        removes = [e for kind, e in plan if kind == "remove"]
        assert inserts == [(2, 3), (3, 4)]
        assert len(removes) == 2
        # A removal can only target an edge present at that moment.
        present = {(0, 1), (1, 2)}
        for kind, e in plan:
            if kind == "insert":
                present.add(e)
            else:
                assert e in present
                present.discard(e)

    def test_interleave_p_zero_no_removals(self):
        plan = interleaved_plan([(0, 1)], [(1, 2)], p=0.0, seed=0)
        assert plan == [("insert", (1, 2))]

    def test_interleave_p_validated(self):
        with pytest.raises(WorkloadError):
            interleaved_plan([], [], p=1.5)

    def test_vertex_fraction_sampling(self, gowalla):
        small = sample_vertex_fraction(gowalla, 0.3, seed=1)
        full = sample_vertex_fraction(gowalla, 1.0, seed=1)
        assert len(small) < len(full) == len(gowalla.edges)
        with pytest.raises(WorkloadError):
            sample_vertex_fraction(gowalla, 0.0)

    def test_edge_fraction_sampling(self, gowalla):
        frac = sample_edge_fraction(gowalla, 0.25, seed=1)
        assert len(frac) == len(gowalla.edges) // 4
        with pytest.raises(WorkloadError):
            sample_edge_fraction(gowalla, 2.0)


class TestRunner:
    def test_run_updates_insert_then_remove(self, gowalla):
        w = make_workload(gowalla, 20, seed=1)
        engine = make_engine("order", w.base_graph())
        ins = run_updates(engine, w.update_edges, "insert")
        assert len(ins) == 20
        assert ins.total_seconds > 0
        rem = run_updates(engine, list(reversed(w.update_edges)), "remove")
        assert len(rem) == 20
        # Round trip: cores must match a fresh decomposition of the base.
        assert engine.core_numbers() == core_numbers(w.base_graph())

    def test_run_updates_kind_validated(self, gowalla):
        engine = make_engine("order", gowalla.graph())
        with pytest.raises(ValueError):
            run_updates(engine, [], "upsert")

    def test_run_mixed(self, gowalla):
        w = make_workload(gowalla, 10, seed=2)
        engine = make_engine("order", w.base_graph())
        plan = interleaved_plan(
            w.base_edges, w.update_edges, p=0.5, seed=3
        )
        log = run_mixed(engine, plan)
        assert len(log) == len(plan)


class TestExperiments:
    def test_table1_rows(self):
        rows = experiments.table1(["ca", "google"], scale=0.15, seed=3)
        assert [r.dataset for r in rows] == ["ca", "google"]
        assert all(r.n > 0 and r.m > 0 for r in rows)
        assert rows[0].paper_max_k == 3

    def test_fig10a_cdf_monotone(self):
        result = experiments.fig10a("ca", **SMALL)
        assert result.fractions == sorted(result.fractions)
        assert result.fractions[-1] == pytest.approx(1.0)

    def test_fig10b_levels_bounded_by_degeneracy(self):
        result = experiments.fig10b("ca", n_updates=40, **SMALL)
        assert max(result.xs) <= 3

    def test_insertion_visits_order_beats_traversal(self):
        result = experiments.insertion_visits("patents", n_updates=60, **SMALL)
        assert result.order_ratio <= result.traversal_ratio
        assert len(result.traversal_proportions) == 5
        assert sum(result.order_proportions) == pytest.approx(1.0)

    def test_fig5_oc_stochastically_smaller(self):
        result = experiments.fig5("patents", sample=60, **SMALL)
        # Robust check: median oc size <= median pc size.
        def median_size(cdf):
            for x, f in zip(cdf.xs, cdf.fractions):
                if f >= 0.5:
                    return x
            return cdf.xs[-1]

        assert median_size(result.oc) <= median_size(result.pc)

    def test_fig9_returns_all_policies(self):
        result = experiments.fig9("ca", n_updates=40, **SMALL)
        assert set(result.ratios) == {"small", "large", "random"}
        assert all(r >= 1.0 or r == 0 for r in result.ratios.values())

    def test_table2_order_wins_inserts(self):
        row = experiments.table2("gowalla", n_updates=60, hops=(2,), **SMALL)
        assert row.insert_seconds["order"] < row.insert_seconds["trav-2"]
        assert row.insert_speedup() > 1.0

    def test_table3_reports_all_engines(self):
        row = experiments.table3("ca", hops=(2, 3), **SMALL)
        assert set(row.build_seconds) == {"order", "trav-2", "trav-3"}
        assert all(s > 0 for s in row.build_seconds.values())

    def test_fig11_ratios_increase_with_fraction(self):
        result = experiments.fig11(
            "ca", fractions=(0.4, 1.0), n_updates=30, **SMALL
        )
        assert len(result.vary_vertices) == 2
        assert (
            result.vary_vertices[0].edge_ratio
            < result.vary_vertices[1].edge_ratio
        )
        assert result.vary_edges[1].edge_ratio == pytest.approx(1.0)

    def test_fig12_group_counts(self):
        result = experiments.fig12(
            "ca", n_groups=4, group_size=8, p=0.0, **SMALL
        )
        assert len(result.group_seconds) == 4
        assert all(s >= 0 for s in result.group_seconds)

    def test_fig12_with_removals(self):
        result = experiments.fig12(
            "ca", n_groups=3, group_size=8, p=0.5, **SMALL
        )
        assert result.p == 0.5
        assert len(result.group_seconds) == 3


class TestReporting:
    def test_format_table_alignment(self):
        text = reporting.format_table(["a", "bb"], [[1, 22], [333, 4]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("a")

    def test_render_table1(self):
        rows = experiments.table1(["ca"], scale=0.15, seed=3)
        text = reporting.render_table1(rows)
        assert "ca" in text and "paper" in text

    def test_render_fig1_and_fig2(self):
        result = experiments.insertion_visits("ca", n_updates=30, **SMALL)
        assert "traversal" in reporting.render_fig1([result])
        assert "|V*|" in reporting.render_fig2([result])

    def test_render_fig5(self):
        result = experiments.fig5("ca", sample=40, **SMALL)
        text = reporting.render_fig5([result])
        assert "oc" in text and "pc" in text and "sc" in text

    def test_render_fig9(self):
        result = experiments.fig9("ca", n_updates=20, **SMALL)
        assert "small" in reporting.render_fig9([result]).lower()

    def test_render_fig10(self):
        result = experiments.fig10a("ca", **SMALL)
        assert "<=3" in reporting.render_fig10([result], "core CDF")

    def test_render_table2_table3(self):
        row2 = experiments.table2("ca", n_updates=20, hops=(2,), **SMALL)
        assert "speedup" in reporting.render_table2([row2])
        row3 = experiments.table3("ca", hops=(2,), **SMALL)
        assert "trav-2" in reporting.render_table3([row3])

    def test_render_fig11_fig12(self):
        r11 = experiments.fig11(
            "ca", fractions=(1.0,), n_updates=10, **SMALL
        )
        assert "|V|" in reporting.render_fig11([r11])
        r12 = experiments.fig12("ca", n_groups=2, group_size=5, **SMALL)
        assert "group" in reporting.render_fig12([r12])


def _load_bench_common():
    """``benchmarks/_bench_common.py``, which is not a package module."""
    path = Path(__file__).resolve().parents[1] / "benchmarks" / "_bench_common.py"
    spec = importlib.util.spec_from_file_location("_bench_common", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench_common = _load_bench_common()


class TestPairedMedians:
    #: Scripted seconds per call of each side.  The per-round ratios are
    #: 3, 2.5, 0.5, 0.5, 4: median 2.5, mean 2.1, quartiles 0.5 and 3;
    #: the ratio of the side medians (4 / 2) is 2.
    BASELINE = [1.0, 2.0, 4.0, 8.0, 1.0]
    CANDIDATE = [3.0, 5.0, 2.0, 4.0, 4.0]

    def sides(self):
        calls = []

        def side(name, seconds):
            script = iter(seconds)

            def run():
                calls.append(name)
                return f"{name}{len(calls)}", next(script)
            return run

        return calls, side("b", self.BASELINE), side("c", self.CANDIDATE)

    def test_sides_alternate_which_runs_first(self):
        calls, baseline, candidate = self.sides()
        bench_common.paired_medians(baseline, candidate, rounds=5)
        assert calls == list("bccbbccbbc")

    def test_side_medians(self):
        _, baseline, candidate = self.sides()
        paired = bench_common.paired_medians(baseline, candidate, rounds=5)
        assert paired.baseline_s == 2.0
        assert paired.candidate_s == 4.0

    def test_ratio_is_the_median_per_round_ratio(self):
        _, baseline, candidate = self.sides()
        paired = bench_common.paired_medians(baseline, candidate, rounds=5)
        assert paired.ratio == 2.5
        assert paired.ratio != paired.candidate_s / paired.baseline_s

    def test_spread_is_the_ratio_quartiles(self):
        _, baseline, candidate = self.sides()
        paired = bench_common.paired_medians(baseline, candidate, rounds=5)
        assert paired.spread == (0.5, 3.0)
        assert paired.info("r") == {"r": 2.5, "r_iqr": [0.5, 3.0]}
        assert str(paired) == "2.500 (IQR 0.500-3.000 over 5 alternated rounds)"

    def test_rounds_are_honoured(self):
        calls, baseline, candidate = self.sides()
        paired = bench_common.paired_medians(baseline, candidate, rounds=3)
        assert calls == list("bccbbc")
        assert paired.rounds == 3
        # Rounds 3, 2.5, 0.5; the last round's results are kept.
        assert paired.ratio == 2.5 and paired.spread == (1.5, 2.75)
        assert (paired.baseline, paired.candidate) == ("b5", "c6")

    def test_default_rounds(self):
        calls = []

        def side():
            calls.append(None)
            return None, 1.0

        paired = bench_common.paired_medians(side, side)
        assert paired.rounds == bench_common.BENCH_ROUNDS
        assert len(calls) == 2 * bench_common.BENCH_ROUNDS

    def test_quartiles_of_one_value(self):
        assert bench_common.quartiles([7.0]) == (7.0, 7.0, 7.0)
