"""Table II: accumulated insertion and removal time, Order vs Trav-h.

Paper shape: OrderInsert wins on every dataset — modestly on small/sparse
graphs, by orders of magnitude on the citation/social graphs whose
purecores explode (Patents: 2944s vs 0.88s).  OrderRemoval wins
everywhere except the road network (CA), whose tiny average degree makes
pcd maintenance cheap; Trav-h removal degrades steeply as h grows
(deeper hierarchy to repair, no search gain).

The ``once()`` row replays the paper's protocol and prints the table:
the update edges inserted one by one into the base graph, then removed
in reverse.  The gates time two engines side by side through
``paired_medians``: an insertion side inserts the edges on a fresh
engine over the base graph, a removal side removes them from a fresh
engine over the full graph, the state the insertions reach.
``order-simplified`` (Guo & Sekerinski's no-mcd variant) rides along:
it runs the same scan without ``mcd`` repair, so both ways it must stay
within timer noise of ``order``.
"""

import pytest
from _bench_common import (
    BENCH_DATASETS,
    BENCH_SCALE,
    BENCH_SEED,
    BENCH_UPDATES,
    once,
    paired_medians,
    replay_side,
)

from repro.bench import experiments, reporting
from repro.bench.workloads import make_workload
from repro.graphs.datasets import load_dataset

HOPS = (2, 3)
ENGINES = ["order", "order-simplified"] + [f"trav-{h}" for h in HOPS]
#: Rounds of each gate: a round builds two engines, which costs more
#: than most of the replays it times, and on patents one ``trav-2``
#: insertion replay takes about a second.
ROUNDS = 3


@pytest.mark.parametrize("dataset", BENCH_DATASETS)
def bench_table2(benchmark, dataset):
    row = once(
        benchmark,
        experiments.table2,
        dataset,
        n_updates=BENCH_UPDATES,
        scale=BENCH_SCALE,
        seed=BENCH_SEED,
        engines=ENGINES,
    )
    workload = make_workload(
        load_dataset(dataset, scale=BENCH_SCALE, seed=BENCH_SEED),
        BENCH_UPDATES, seed=BENCH_SEED,
    )
    removals = list(reversed(workload.update_edges))

    def paired(kind, baseline, candidate):
        graph, edges = (
            (workload.base_graph, workload.update_edges) if kind == "insert"
            else (workload.full_graph, removals)
        )
        return paired_medians(replay_side(baseline, graph, edges, kind),
                              replay_side(candidate, graph, edges, kind),
                              rounds=ROUNDS)

    gates = {
        "insert order/trav-2": paired("insert", "trav-2", "order"),
        "insert simplified/order": paired("insert", "order",
                                          "order-simplified"),
        "remove order/trav-2": paired("remove", "trav-2", "order"),
    }
    if dataset != "ca":
        gates["remove trav-3/trav-2"] = paired("remove", "trav-2", "trav-3")
        gates["remove simplified/order"] = paired("remove", "order",
                                                  "order-simplified")
    print()
    print(reporting.render_table2([row]))
    for key, gate in gates.items():
        print(f"{key} {gate}")
        benchmark.extra_info.update(gate.info(key))
    for half, seconds in (("insert", row.insert_seconds),
                          ("remove", row.remove_seconds)):
        for engine, s in seconds.items():
            benchmark.extra_info[f"{half} {engine} s"] = round(s, 4)

    # OrderInsert beats Trav-2 on every dataset in the paper; at bench
    # scale the sparse road network finishes in milliseconds, so allow a
    # timer-noise margin there rather than asserting a strict win.
    margin = 1.5 if dataset == "ca" else 1.0
    assert gates["insert order/trav-2"].ratio < margin, (
        "OrderInsert must beat Trav-2 (Table II)"
    )
    if dataset == "ca":
        # The paper's one dataset where Trav-2 removal can win: no
        # winner asserted, only the same order of magnitude.
        assert gates["remove order/trav-2"].ratio < 20
    else:
        assert gates["remove order/trav-2"].ratio < 1, (
            "OrderRemoval must beat Trav-2 off the road network (Table II)"
        )
        # Deeper hierarchies pay more maintenance on removals.
        assert gates["remove trav-3/trav-2"].ratio > 1
    for half in ("insert", "remove"):
        gate = gates.get(f"{half} simplified/order")
        if gate is not None:
            assert gate.candidate_s < gate.baseline_s * 2 + 0.05, (
                f"simplified {half} left the order family's ballpark"
            )
