"""Batch-native removal runs vs the per-edge loop.

The removal-side claim of the batch pipeline: a window-expiry batch of E
edges runs one joint cascade per affected level instead of one cascade
per edge, and that shows up as wall-clock wins.  Both paths keep ``mcd``
incrementally exact inside the cascade and charge one recomputation per
demotion, so on pure removals their ``mcd_recomputations`` agree
exactly; on a mixed stream the batched side still charges less, because
its insertion runs coalesce their ``mcd`` repair.  Each bench asserts
the counters outright and the wall-clock win at meaningful stream
lengths (tiny CI smoke scales only record it), on the median of
``WALL_CLOCK_ROUNDS`` paired rounds.

Besides ``benchmark.extra_info``, every bench appends a record to a
``BENCH_batch_removal.json`` artifact (ops/sec plus the per-run
``mcd_recomputations``) so CI keeps a machine-readable perf trajectory;
set ``REPRO_BENCH_ARTIFACT_DIR`` to choose where it lands.
"""

import json
import os
import statistics
from pathlib import Path

import pytest
from _bench_common import BENCH_SCALE, BENCH_SEED, BENCH_UPDATES, once

from repro.bench.runner import run_batches, run_mixed, run_updates
from repro.bench.workloads import make_workload, mixed_batch_workload
from repro.engine import make_engine
from repro.engine.batch import Batch
from repro.graphs.datasets import load_dataset

#: Edges expiring per tick in the window-expiry replay.
WINDOW = int(os.environ.get("REPRO_BENCH_WINDOW", "50"))
#: Below this many update edges, wall-clock asserts are skipped (CI
#: smoke runs are too small for stable timing) but still recorded.
WALL_CLOCK_MIN_OPS = 200
#: Paired (per-edge, batched) rounds behind each wall-clock assert; the
#: medians are compared, so one noisy ~10 ms round cannot decide it.
WALL_CLOCK_ROUNDS = 9

_RECORDS: list[dict] = []


@pytest.fixture(scope="module", autouse=True)
def _emit_artifact():
    """Write the accumulated records once the module's benches finish."""
    _RECORDS.clear()
    yield
    path = (
        Path(os.environ.get("REPRO_BENCH_ARTIFACT_DIR", "."))
        / "BENCH_batch_removal.json"
    )
    path.write_text(
        json.dumps(
            {
                "benchmark": "batch_removal",
                "scale": BENCH_SCALE,
                "updates": BENCH_UPDATES,
                "window": WINDOW,
                "records": _RECORDS,
            },
            indent=2,
        )
    )


def _record(name, ops, per_edge_s, batched_s, per_edge_mcd, batched_mcd,
            runs):
    entry = {
        "bench": name,
        "ops": ops,
        "per_edge_seconds": round(per_edge_s, 6),
        "batched_seconds": round(batched_s, 6),
        "per_edge_ops_per_sec": round(ops / per_edge_s, 1) if per_edge_s else None,
        "batched_ops_per_sec": round(ops / batched_s, 1) if batched_s else None,
        "speedup": round(per_edge_s / batched_s, 3) if batched_s else None,
        "mcd_recomputations_per_edge_path": per_edge_mcd,
        "mcd_recomputations_batched": batched_mcd,
        "runs": runs,
        "mcd_recomputations_per_run": (
            round(batched_mcd / runs, 2) if runs else 0
        ),
    }
    _RECORDS.append(entry)
    return entry


def _seconds(log, results):
    """(per-edge, batched) seconds of one paired round."""
    return log.total_seconds, sum(r.seconds for r in results)


def _assert_batched_wins(run, first):
    """Re-run ``run`` for the remaining paired rounds (``first`` is the
    measured one) and compare the per-side medians."""
    rounds = [first]
    for _ in range(WALL_CLOCK_ROUNDS - 1):
        _, log, _, results = run()
        rounds.append(_seconds(log, results))
    per_edge_s = statistics.median(r[0] for r in rounds)
    batched_s = statistics.median(r[1] for r in rounds)
    assert batched_s < per_edge_s, (
        f"batch-native removal should beat the per-edge loop: "
        f"median {batched_s:.3f}s vs {per_edge_s:.3f}s"
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

    def run():
        per_edge = make_engine("order", workload.full_graph())
        log = run_updates(per_edge, victims, "remove")
        batched = make_engine("order", workload.full_graph())
        results = run_batches(batched, windows)
        assert per_edge.core_numbers() == batched.core_numbers()
        return per_edge, log, batched, results

    per_edge, log, batched, results = once(benchmark, run)
    per_edge_seconds, batched_seconds = _seconds(log, results)
    entry = _record(
        "window_expiry", len(victims),
        per_edge_seconds, batched_seconds,
        per_edge.mcd_recomputations, batched.mcd_recomputations,
        runs=len(windows),
    )
    benchmark.extra_info.update(entry)
    # Both paths recompute mcd once per demoted vertex, nothing else.
    assert batched.mcd_recomputations == per_edge.mcd_recomputations
    if len(victims) >= WALL_CLOCK_MIN_OPS:
        _assert_batched_wins(run, (per_edge_seconds, batched_seconds))


def bench_mixed_stream_with_removal_runs(benchmark):
    """Mixed insert/remove batches: both sides now coalesce their repair."""
    dataset = load_dataset("gowalla", scale=BENCH_SCALE, seed=BENCH_SEED)
    workload, plan, batches = mixed_batch_workload(
        dataset, BENCH_UPDATES, WINDOW, p=0.4, seed=BENCH_SEED
    )

    def run():
        per_edge = make_engine("order", workload.base_graph())
        log = run_mixed(per_edge, plan)
        batched = make_engine("order", workload.base_graph())
        results = run_batches(batched, batches)
        assert per_edge.core_numbers() == batched.core_numbers()
        return per_edge, log, batched, results

    per_edge, log, batched, results = once(benchmark, run)
    per_edge_seconds, batched_seconds = _seconds(log, results)
    removal_runs = sum(1 for r in results if r.removes)
    entry = _record(
        "mixed_stream", len(plan),
        per_edge_seconds, batched_seconds,
        per_edge.mcd_recomputations, batched.mcd_recomputations,
        runs=removal_runs,
    )
    benchmark.extra_info.update(entry)
    if any(r.inserts for r in results):
        # Only the insertion runs' coalesced repair can save mcd work.
        assert batched.mcd_recomputations < per_edge.mcd_recomputations
    if len(plan) >= WALL_CLOCK_MIN_OPS:
        _assert_batched_wins(run, (per_edge_seconds, batched_seconds))
