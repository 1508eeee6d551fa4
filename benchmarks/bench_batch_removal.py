"""Batch-native removal runs vs the per-edge loop.

The removal-side claim of the batch pipeline: a window-expiry batch of E
edges runs one joint cascade per affected level instead of one cascade
per edge, and that shows up as wall-clock wins.  Both paths keep ``mcd``
incrementally exact inside the cascade and charge one recomputation per
demotion, so on pure removals their ``mcd_recomputations`` agree
exactly; on a mixed stream the batched side still charges less, because
its insertion runs coalesce their ``mcd`` repair.  Each bench asserts
the counters outright and the wall-clock win at meaningful stream
lengths (tiny CI smoke scales only record it), on the median per-round
ratio of ``BENCH_ROUNDS`` rounds that alternate which path runs first
(``paired_medians``).

Besides ``benchmark.extra_info``, every bench appends a record to a
``BENCH_batch_removal.json`` artifact (ops/sec plus the per-run
``mcd_recomputations``) so CI keeps a machine-readable perf trajectory;
set ``REPRO_BENCH_ARTIFACT_DIR`` to choose where it lands.
"""

from _bench_common import (
    BENCH_SCALE,
    BENCH_SEED,
    BENCH_UPDATES,
    artifact,
    once,
    paired_medians,
    replay_side,
)

from repro.bench.runner import run_batches, run_mixed
from repro.bench.workloads import make_workload, mixed_batch_workload
from repro.engine import make_engine
from repro.engine.batch import Batch
from repro.graphs.datasets import load_dataset

#: Edges expiring per tick in the window-expiry replay.
WINDOW = 50
#: Below this many update edges, wall-clock asserts are skipped (CI
#: smoke runs are too small for stable timing) but still recorded.
WALL_CLOCK_MIN_OPS = 200

RECORDS, _artifact = artifact("batch_removal", lambda: {
    "scale": BENCH_SCALE,
    "updates": BENCH_UPDATES,
    "window": WINDOW,
})


def _batched_side(graph, batches):
    """A paired side: ``batches`` through ``apply_batch`` on a fresh
    ``order`` engine over ``graph()``; the batches' own time is the
    side's, and its result is ``(engine, results)``."""
    def side():
        engine = make_engine("order", graph())
        results = run_batches(engine, batches)
        return (engine, results), sum(r.seconds for r in results)
    return side


def _record(name, ops, paired, per_edge_mcd, batched_mcd, runs):
    entry = {
        "bench": name,
        "ops": ops,
        "per_edge_seconds": round(paired.baseline_s, 6),
        "batched_seconds": round(paired.candidate_s, 6),
        "per_edge_ops_per_sec": round(ops / paired.baseline_s, 1),
        "batched_ops_per_sec": round(ops / paired.candidate_s, 1),
        "speedup": round(1 / paired.ratio, 3),
        **paired.info("batched/per_edge"),
        "mcd_recomputations_per_edge_path": per_edge_mcd,
        "mcd_recomputations_batched": batched_mcd,
        "runs": runs,
        "mcd_recomputations_per_run": (
            round(batched_mcd / runs, 2) if runs else 0
        ),
    }
    RECORDS.append(entry)
    print(f"\n{name}: batched/per-edge {paired}")
    return entry


def _assert_batched_wins(ops, paired):
    if ops >= WALL_CLOCK_MIN_OPS:
        assert paired.ratio < 1, (
            f"batch-native removal should beat the per-edge loop: "
            f"batched/per-edge {paired}"
        )


def bench_window_expiry_removal_runs(benchmark):
    """Window expiry: bulk deletions, the workload the run coalesces."""
    dataset = load_dataset("gowalla", scale=BENCH_SCALE, seed=BENCH_SEED)
    workload = make_workload(dataset, BENCH_UPDATES, seed=BENCH_SEED)
    victims = workload.update_edges
    windows = [
        Batch.removes(victims[i : i + WINDOW])
        for i in range(0, len(victims), WINDOW)
    ]

    paired = once(benchmark, paired_medians,
                  replay_side("order", workload.full_graph, victims, "remove"),
                  _batched_side(workload.full_graph, windows))
    per_edge, (batched, _) = paired.baseline, paired.candidate
    assert per_edge.core_numbers() == batched.core_numbers()
    entry = _record(
        "window_expiry", len(victims), paired,
        per_edge.mcd_recomputations, batched.mcd_recomputations,
        runs=len(windows),
    )
    benchmark.extra_info.update(entry)
    # Both paths recompute mcd once per demoted vertex, nothing else.
    assert batched.mcd_recomputations == per_edge.mcd_recomputations
    _assert_batched_wins(len(victims), paired)


def bench_mixed_stream_with_removal_runs(benchmark):
    """Mixed insert/remove batches: both sides now coalesce their repair."""
    dataset = load_dataset("gowalla", scale=BENCH_SCALE, seed=BENCH_SEED)
    workload, plan, batches = mixed_batch_workload(
        dataset, BENCH_UPDATES, WINDOW, p=0.4, seed=BENCH_SEED
    )

    def per_edge_side():
        engine = make_engine("order", workload.base_graph())
        return engine, run_mixed(engine, plan).total_seconds

    paired = once(benchmark, paired_medians, per_edge_side,
                  _batched_side(workload.base_graph, batches))
    per_edge, (batched, results) = paired.baseline, paired.candidate
    assert per_edge.core_numbers() == batched.core_numbers()
    removal_runs = sum(1 for r in results if r.removes)
    entry = _record(
        "mixed_stream", len(plan), paired,
        per_edge.mcd_recomputations, batched.mcd_recomputations,
        runs=removal_runs,
    )
    benchmark.extra_info.update(entry)
    if any(r.inserts for r in results):
        # Only the insertion runs' coalesced repair can save mcd work.
        assert batched.mcd_recomputations < per_edge.mcd_recomputations
    _assert_batched_wins(len(plan), paired)
