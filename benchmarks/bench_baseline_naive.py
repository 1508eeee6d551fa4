"""Maintenance vs. recomputation: the problem statement's motivation.

Not a numbered figure — this is the paper's introduction quantified: how
much does *any* maintenance buy over rerunning the linear decomposition
per update, and how much more does the order-based engine buy on top.
The ``once()`` row times the three engines; the gates pair ``order``
against ``trav-2`` and ``trav-2`` against ``naive`` (``paired_medians``).
"""

from _bench_common import BENCH_SEED, once, paired_medians, replay_side

from repro.bench.runner import run_updates
from repro.bench.workloads import make_workload
from repro.engine import make_engine
from repro.graphs.datasets import load_dataset

ENGINES = ("naive", "trav-2", "order")
#: Rounds of each gate: a ``naive`` replay recomputes every core 60 times.
ROUNDS = 3


def bench_naive_vs_maintenance(benchmark):
    dataset = load_dataset("gowalla", scale=0.35, seed=BENCH_SEED)
    workload = make_workload(dataset, 60, seed=BENCH_SEED)

    def run_all_engines():
        times = {}
        for name in ENGINES:
            engine = make_engine(name, workload.base_graph())
            log = run_updates(engine, workload.update_edges, "insert")
            times[name] = log.total_seconds
        return times

    times = once(benchmark, run_all_engines)
    side = {
        name: replay_side(
            name, workload.base_graph, workload.update_edges, "insert"
        )
        for name in ENGINES
    }
    order = paired_medians(side["trav-2"], side["order"], rounds=ROUNDS)
    trav = paired_medians(side["naive"], side["trav-2"], rounds=ROUNDS)
    # Maintenance beats recomputation by a wide margin; order beats trav.
    assert order.ratio < 1, f"order/trav-2 {order}"
    assert trav.ratio < 1, f"trav-2/naive {trav}"
    benchmark.extra_info["naive_s"] = round(times["naive"], 3)
    benchmark.extra_info["trav2_s"] = round(times["trav-2"], 3)
    benchmark.extra_info["order_s"] = round(times["order"], 3)
    benchmark.extra_info["order_vs_naive"] = round(
        times["naive"] / max(times["order"], 1e-9), 1
    )
    benchmark.extra_info.update(order.info("order/trav-2"))
    benchmark.extra_info.update(trav.info("trav-2/naive"))
    print(
        f"\nnaive {times['naive']:.3f}s | trav-2 {times['trav-2']:.3f}s | "
        f"order {times['order']:.3f}s "
        f"({times['naive'] / max(times['order'], 1e-9):.0f}x vs naive); "
        f"order/trav-2 {order}; trav-2/naive {trav}"
    )
