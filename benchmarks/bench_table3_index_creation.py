"""Table III: index creation time (one-time cost).

Paper shape: the order-based index costs about the same as Trav-2 to a
small factor (the paper reports ~2x including core decomposition), and
traversal creation time grows with the hop count h.

At the default scale one build takes 1–16 ms, so a single round's ratio
is noise-bound.  The gates compare ``paired_medians`` ratios: ``order``
and ``trav-4`` each against ``trav-2``, over ``BENCH_ROUNDS`` rounds
that alternate which side builds first.  The ``once()`` row prints the
table.
"""

import pytest
from _bench_common import (
    BENCH_DATASETS,
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
    edges = load_dataset(dataset, scale=BENCH_SCALE, seed=BENCH_SEED).edges
    order = paired_medians(timed_build("trav-2", edges),
                           timed_build("order", edges))
    deeper = paired_medians(timed_build("trav-2", edges),
                            timed_build("trav-4", edges))
    # Hierarchy depth makes traversal index creation slower.
    assert deeper.ratio > 0.8, f"trav-4/trav-2 build ratio {deeper}"
    # The order index stays within a small factor of Trav-2.
    assert order.ratio < 8, f"order/trav-2 build ratio {order}"
    for engine, seconds in row.build_seconds.items():
        benchmark.extra_info[engine] = round(seconds, 3)
    benchmark.extra_info.update(order.info("order/trav-2"))
    benchmark.extra_info.update(deeper.info("trav-4/trav-2"))
    benchmark.extra_info["rounds"] = order.rounds
    print()
    print(reporting.render_table3([row]))
    print(
        f"order/trav-2 build ratio {order} (medians "
        f"{order.candidate_s * 1e3:.1f} ms / {order.baseline_s * 1e3:.1f} "
        f"ms); trav-4/trav-2 {deeper}"
    )
