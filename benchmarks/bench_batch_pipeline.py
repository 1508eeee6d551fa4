"""Batch pipeline: batched vs per-edge throughput on a mixed workload.

The engine-layer claim: replaying a mixed insert/remove stream through
the batch pipeline must never lose to the per-edge loop, and the order
engine must do measurably fewer ``mcd`` recomputations because insertion
runs coalesce their repair at the run boundary.  The batched rows name
the path they measure (:data:`BATCHED_PATH`), so ``apply_batch``'s
rebuild rule cannot swap the run loop out from under them.  ``benchmark.extra_info``
carries the counters so the bench log doubles as the results table.
"""

import pytest
from _bench_common import BENCH_SCALE, BENCH_SEED, BENCH_UPDATES, once

from repro.bench.runner import run_batches, run_mixed
from repro.bench.workloads import mixed_batch_workload
from repro.engine import make_engine
from repro.graphs.datasets import load_dataset

BATCH_SIZE = 100
MIX_P = 0.3

#: The batch path each engine's batched row measures: the run loop, and
#: for ``naive`` its one recompute per batch.
BATCHED_PATH = {
    "order": "maintain_batch",
    "trav-2": "maintain_batch",
    "naive": "rebuild_batch",
}


def _workload(name="gowalla"):
    dataset = load_dataset(name, scale=BENCH_SCALE, seed=BENCH_SEED)
    return mixed_batch_workload(
        dataset, BENCH_UPDATES, BATCH_SIZE, p=MIX_P, seed=BENCH_SEED
    )


@pytest.mark.parametrize("engine_name", ["order", "trav-2", "naive"])
def bench_batched_replay(benchmark, engine_name):
    workload, plan, batches = _workload()
    engine = make_engine(engine_name, workload.base_graph())
    apply = getattr(engine, BATCHED_PATH[engine_name])
    results = once(benchmark, lambda: [apply(batch) for batch in batches])
    benchmark.extra_info["ops"] = len(plan)
    benchmark.extra_info["batches"] = len(batches)
    benchmark.extra_info["net_changed"] = sum(r.total_changed for r in results)
    mcd = getattr(engine, "mcd_recomputations", None)
    if mcd is not None:
        benchmark.extra_info["mcd_recomputations"] = mcd


@pytest.mark.parametrize("engine_name", ["order", "naive"])
def bench_per_edge_replay(benchmark, engine_name):
    workload, plan, _ = _workload()
    engine = make_engine(engine_name, workload.base_graph())
    log = once(benchmark, run_mixed, engine, plan)
    benchmark.extra_info["ops"] = len(plan)
    mcd = getattr(engine, "mcd_recomputations", None)
    if mcd is not None:
        benchmark.extra_info["mcd_recomputations"] = mcd


def bench_batched_beats_per_edge_on_mcd_repair(benchmark):
    """The headline comparison in one bench: counters side by side."""
    workload, plan, batches = _workload()

    def run():
        per_edge = make_engine("order", workload.base_graph())
        run_mixed(per_edge, plan)
        batched = make_engine("order", workload.base_graph())
        run_batches(batched, batches)
        assert per_edge.core_numbers() == batched.core_numbers()
        return per_edge.mcd_recomputations, batched.mcd_recomputations

    per_edge_mcd, batched_mcd = once(benchmark, run)
    assert batched_mcd < per_edge_mcd
    benchmark.extra_info["mcd_per_edge"] = per_edge_mcd
    benchmark.extra_info["mcd_batched"] = batched_mcd
    benchmark.extra_info["saved"] = per_edge_mcd - batched_mcd
