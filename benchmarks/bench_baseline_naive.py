"""Maintenance vs. recomputation: the problem statement's motivation.

Not a numbered figure — this is the paper's introduction quantified: how
much does *any* maintenance buy over rerunning the linear decomposition
per update, and how much more does the order-based engine buy on top.
"""

from _bench_common import BENCH_SEED, once

from repro.bench.runner import run_updates
from repro.bench.workloads import make_workload
from repro.engine import make_engine
from repro.graphs.datasets import load_dataset


def bench_naive_vs_maintenance(benchmark):
    dataset = load_dataset("gowalla", scale=0.35, seed=BENCH_SEED)
    workload = make_workload(dataset, 60, seed=BENCH_SEED)

    def run_all_engines():
        times = {}
        for name in ("naive", "trav-2", "order"):
            engine = make_engine(name, workload.base_graph())
            log = run_updates(engine, workload.update_edges, "insert")
            times[name] = log.total_seconds
        return times

    times = once(benchmark, run_all_engines)
    # Maintenance beats recomputation by a wide margin; order beats trav.
    assert times["order"] < times["trav-2"] < times["naive"]
    benchmark.extra_info["naive_s"] = round(times["naive"], 3)
    benchmark.extra_info["trav2_s"] = round(times["trav-2"], 3)
    benchmark.extra_info["order_s"] = round(times["order"], 3)
    benchmark.extra_info["order_vs_naive"] = round(
        times["naive"] / max(times["order"], 1e-9), 1
    )
    print(
        f"\nnaive {times['naive']:.3f}s | trav-2 {times['trav-2']:.3f}s | "
        f"order {times['order']:.3f}s "
        f"({times['naive'] / max(times['order'], 1e-9):.0f}x vs naive)"
    )
