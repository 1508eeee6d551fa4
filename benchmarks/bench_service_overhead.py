"""Façade overhead: ``CoreService`` commits vs raw ``apply_batch``.

The service façade wraps every batch in a commit (receipt minting, net
delta capture, event construction, subscriber dispatch).  That wrapper
must stay in the noise: the acceptance bar is the façade within 5% of
raw ``apply_batch`` throughput on the mixed-batch workload.  Each bench
replays the same batch stream through a bare engine and through a
service session in ``BENCH_ROUNDS`` paired rounds (alternating which
side runs first), asserts identical final cores, and — at meaningful
stream lengths — asserts the 5% bound on the median per-round ratio.

A second bench drives the sliding-window monitor at the temporal
stream's natural tick granularity (``TemporalEdgeStream.ticks``), the
end-to-end path where every same-tick arrival lands as one batch: one
service commit per arrival tick plus one per expiry flush.

Every bench appends a record to a ``BENCH_service_overhead.json``
artifact so CI keeps a machine-readable trajectory of the façade cost;
set ``REPRO_BENCH_ARTIFACT_DIR`` to choose where it lands.
"""

import time

import pytest
from _bench_common import (
    BENCH_ROUNDS,
    BENCH_SCALE,
    BENCH_SEED,
    BENCH_UPDATES,
    artifact,
    once,
    paired_medians,
)

from repro.bench.workloads import mixed_batch_workload
from repro.engine import make_engine
from repro.graphs.datasets import load_dataset
from repro.service import CoreService
from repro.streaming import SlidingWindowCoreMonitor

#: Ops per batch in the mixed-batch replay.
BATCH_SIZE = 50
#: Below this many ops the 5% wall-clock assert is skipped (CI smoke
#: scales are too small for stable timing) but still recorded.
WALL_CLOCK_MIN_OPS = 200
#: The acceptance bound: façade within 5% of raw apply_batch.
OVERHEAD_BOUND = 1.05

RECORDS, _artifact = artifact("service_overhead", lambda: {
    "scale": BENCH_SCALE,
    "updates": BENCH_UPDATES,
    "batch_size": BATCH_SIZE,
    "rounds": BENCH_ROUNDS,
    "bound": OVERHEAD_BOUND,
})


def _replay_raw(workload, batches):
    engine = make_engine("order", workload.base_graph())
    started = time.perf_counter()
    for batch in batches:
        engine.apply_batch(batch)
    return engine, time.perf_counter() - started


def _replay_service(workload, batches, subscriber_count=0):
    service = CoreService.open(workload.base_graph(), engine="order")
    sinks = [[] for _ in range(subscriber_count)]
    for sink in sinks:
        service.subscribe(sink.append)
    started = time.perf_counter()
    for batch in batches:
        service.apply(batch)
    return service, time.perf_counter() - started


def _record(name, ops, paired, extra=None):
    entry = {
        "bench": name,
        "ops": ops,
        "raw_seconds": round(paired.baseline_s, 6),
        "facade_seconds": round(paired.candidate_s, 6),
        "raw_ops_per_sec": round(ops / paired.baseline_s, 1),
        "facade_ops_per_sec": round(ops / paired.candidate_s, 1),
        **paired.info("overhead_ratio"),
    }
    if extra:
        entry.update(extra)
    RECORDS.append(entry)
    print(f"\n{name}: façade/raw {paired}")
    return entry


@pytest.mark.parametrize("subscribers", [0, 1])
def bench_service_vs_raw_mixed_batches(benchmark, subscribers):
    """The acceptance workload: mixed batches, raw engine vs façade."""
    dataset = load_dataset("gowalla", scale=BENCH_SCALE, seed=BENCH_SEED)
    workload, plan, batches = mixed_batch_workload(
        dataset, BENCH_UPDATES, BATCH_SIZE, p=0.3, seed=BENCH_SEED
    )

    paired = once(
        benchmark, paired_medians,
        lambda: _replay_raw(workload, batches),
        lambda: _replay_service(
            workload, batches, subscriber_count=subscribers
        ),
    )
    assert paired.baseline.core_numbers() == paired.candidate.cores(), (
        "façade replay diverged from raw apply_batch"
    )
    entry = _record(
        f"mixed_batches_subs{subscribers}", len(plan), paired,
        extra={"subscribers": subscribers, "batches": len(batches)},
    )
    benchmark.extra_info.update(entry)
    if len(plan) >= WALL_CLOCK_MIN_OPS and subscribers == 0:
        assert paired.ratio <= OVERHEAD_BOUND, (
            f"façade overhead {paired} exceeds {OVERHEAD_BOUND}x"
        )


def bench_monitor_tick_replay(benchmark):
    """The tick-granularity window path: one commit per arrival tick.

    Replays a temporal stream through the sliding-window monitor with
    same-tick arrivals batched by ``TemporalEdgeStream.ticks`` — the
    end-to-end shape the ROADMAP's observe_many item asks for — and
    records how far below one-commit-per-edge the tick batching lands.
    """
    dataset = load_dataset("facebook", scale=BENCH_SCALE, seed=BENCH_SEED)
    stream = dataset.stream()
    tick = max(1.0, len(stream) / max(1, BENCH_UPDATES))
    window = tick * 40

    def run():
        monitor = SlidingWindowCoreMonitor(window=window)
        for t, edges in stream.ticks(every=tick):
            monitor.observe_many(edges, t)
        monitor.drain()
        return monitor

    monitor = once(benchmark, run)
    commits = monitor.service.last_receipt.receipt_id
    ticks = sum(1 for _ in stream.ticks(every=tick))
    entry = {
        "bench": "monitor_tick_replay",
        "edges": len(stream),
        "arrival_ticks": ticks,
        "service_commits": commits,
        "arrivals": monitor.stats.arrivals,
        "expiries": monitor.stats.expiries,
        "promotions": monitor.stats.promotions,
        "demotions": monitor.stats.demotions,
    }
    RECORDS.append(entry)
    benchmark.extra_info.update(entry)
    # Every tick's arrivals land as ONE batch: at most one insert commit
    # per tick plus the expiry commits, never one per edge.
    assert monitor.stats.arrivals == len(stream)
    assert commits <= 2 * ticks + 1
