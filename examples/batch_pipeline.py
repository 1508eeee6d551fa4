"""The batch pipeline through the service façade.

Builds a Fig. 12-style mixed update stream (insertions interleaved with
random removals), chunks it into batches, and replays it twice on the
order-based engine — once per edge, once as transactional commits — then
shows the naive engine turning the same batches into one recomputation
each.  The point to watch: identical final core numbers, far less ``mcd``
repair work, and every session opened through ``CoreService``.

Run:  python examples/batch_pipeline.py
"""

import time

from repro import Batch, CoreService, load_dataset
from repro.bench.workloads import mixed_batch_workload


def main() -> None:
    dataset = load_dataset("gowalla", scale=0.3, seed=13)
    workload, plan, batches = mixed_batch_workload(
        dataset, n_updates=400, batch_size=100, p=0.3, seed=13
    )
    print(
        f"dataset gowalla: base graph m={workload.base_graph().m}, "
        f"plan of {len(plan)} mixed ops in {len(batches)} batches"
    )

    # Per-edge replay: one one-op commit (and one mcd repair) per update.
    # The paper's engine is pinned by name here because the story below
    # is its mcd-repair amortization (the registry default is the
    # simplified engine, which has no mcd at all).
    per_edge = CoreService.open(workload.base_graph(), engine="order")
    started = time.perf_counter()
    for kind, (u, v) in plan:
        op = per_edge.insert if kind == "insert" else per_edge.remove
        op(u, v)
    per_edge_seconds = time.perf_counter() - started

    # Batched replay: mcd repair coalesced per same-kind run.
    batched = CoreService.open(workload.base_graph(), engine="order")
    started = time.perf_counter()
    for batch in batches:
        batched.apply(batch)
    batched_seconds = time.perf_counter() - started

    assert per_edge.cores() == batched.cores()
    print(
        f"order  per-edge: {per_edge_seconds:.3f}s, "
        f"{per_edge.engine.mcd_recomputations} mcd recomputations"
    )
    print(
        f"order  batched : {batched_seconds:.3f}s, "
        f"{batched.engine.mcd_recomputations} mcd recomputations "
        f"(same final core numbers)"
    )

    # The k-order blocks are OM lists: order tests are O(1) label
    # compares, and relabels count the label redistributions.
    stats = batched.engine.sequence_stats
    print(
        f"order  k-order : {stats.order_queries} order queries, "
        f"{stats.relabels} relabels"
    )

    # The naive engine runs CoreDecomp once per *batch*, not per edge.
    naive = CoreService.open(workload.base_graph(), engine="naive")
    started = time.perf_counter()
    for batch in batches:
        naive.apply(batch)
    naive_seconds = time.perf_counter() - started
    assert naive.cores() == batched.cores()
    print(
        f"naive  batched : {naive_seconds:.3f}s, "
        f"{naive.engine.rebuilds} rebuilds for {len(plan)} ops"
    )

    # Batches are first-class values: build them directly, too.
    demo = Batch.inserts([("a", "b"), ("b", "c"), ("c", "a")]).remove("a", "b")
    svc = CoreService.open(workload.base_graph(), engine="trav-2")
    receipt = svc.apply(demo)
    print(
        f"trav-2 ad-hoc batch: {receipt.ops} ops, "
        f"net |V*|={len(receipt.deltas)}, {receipt.seconds:.4f}s"
    )


if __name__ == "__main__":
    main()
