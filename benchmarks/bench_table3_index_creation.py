"""Table III: index creation time (one-time cost).

Paper shape: the order-based index costs about the same as Trav-2 to a
small factor (the paper reports ~2x including core decomposition), and
traversal creation time grows with the hop count h.

At the default scale one build takes 2–28 ms, so a single round's
``order``/``trav-2`` ratio is noise-bound.  The ratio reported is the
median over ``BENCH_ROUNDS`` paired rounds, alternating which side
builds first (``paired_medians``).
"""

import pytest
from _bench_common import (
    BENCH_DATASETS,
    BENCH_ROUNDS,
    BENCH_SCALE,
    BENCH_SEED,
    once,
    paired_medians,
)

from repro.bench import experiments, reporting
from repro.bench.runner import time_index_build
from repro.engine.registry import make_engine
from repro.graphs.datasets import load_dataset
from repro.graphs.undirected import DynamicGraph

HOPS = (2, 3, 4)


def timed_build(engine_name, edges):
    """One round's side: build ``engine_name`` on a fresh graph."""
    return lambda: time_index_build(
        lambda graph: make_engine(engine_name, graph),
        DynamicGraph.from_edges(edges),
    )


@pytest.mark.parametrize("dataset", BENCH_DATASETS)
def bench_table3(benchmark, dataset):
    row = once(
        benchmark,
        experiments.table3,
        dataset,
        hops=HOPS,
        scale=BENCH_SCALE,
        seed=BENCH_SEED,
    )
    # Hierarchy depth makes traversal index creation slower.
    assert row.build_seconds["trav-4"] > row.build_seconds["trav-2"] * 0.8
    # The order index stays within a small factor of Trav-2.
    assert row.build_seconds["order"] < row.build_seconds["trav-2"] * 8
    edges = load_dataset(dataset, scale=BENCH_SCALE, seed=BENCH_SEED).edges
    trav_s, order_s, ratio, _, _ = paired_medians(
        timed_build("trav-2", edges), timed_build("order", edges)
    )
    assert ratio < 8
    for engine, seconds in row.build_seconds.items():
        benchmark.extra_info[engine] = round(seconds, 3)
    benchmark.extra_info["order/trav-2"] = round(ratio, 3)
    benchmark.extra_info["rounds"] = BENCH_ROUNDS
    print()
    print(reporting.render_table3([row]))
    print(
        f"order/trav-2 build ratio {ratio:.2f} (median over {BENCH_ROUNDS} "
        f"alternated rounds; medians {order_s * 1e3:.1f} ms / "
        f"{trav_s * 1e3:.1f} ms)"
    )
