"""Figs. 1 and 2: vertices visited per insertion, and visited per update.

Both figures read the same replay (``experiments.insertion_visits``: the
update stream inserted by ``trav-2`` and by ``order``), so one run per
dataset yields both.

Paper shape, Fig. 1: the traversal algorithm has a heavy tail (>1000
visited for a non-small share of insertions on citation/social graphs)
while the order-based algorithm stays under ~100 everywhere.

Paper shape, Fig. 2: traversal ratio >= 7 (up to ~10,000 on
Patents/Pokec); the order-based ratio stays below ~4 and can approach 1.
"""

import pytest
from _bench_common import BENCH_DATASETS, BENCH_SCALE, BENCH_SEED, BENCH_UPDATES, once

from repro.bench import experiments, reporting


@pytest.mark.parametrize("dataset", BENCH_DATASETS)
def bench_fig1_fig2(benchmark, dataset):
    result = once(
        benchmark,
        experiments.insertion_visits,
        dataset,
        n_updates=BENCH_UPDATES,
        scale=BENCH_SCALE,
        seed=BENCH_SEED,
    )
    # Fig. 1: order-based insertions never exceed the last bucket on any
    # dataset the paper tests; assert the reproduced shape.
    assert result.order_proportions[-1] == 0.0, "order engine visited >1000"
    assert (
        result.order_proportions[0] >= result.traversal_proportions[0]
    ), "order engine should keep more insertions in the <=3 bucket"
    # Fig. 2.
    assert result.order_ratio <= result.traversal_ratio
    benchmark.extra_info["order_le3"] = round(result.order_proportions[0], 3)
    benchmark.extra_info["trav_gt1000"] = round(
        result.traversal_proportions[-1], 3
    )
    benchmark.extra_info["traversal_ratio"] = round(result.traversal_ratio, 1)
    benchmark.extra_info["order_ratio"] = round(result.order_ratio, 2)
    print()
    print(reporting.render_fig1([result]))
    print(reporting.render_fig2([result]))
