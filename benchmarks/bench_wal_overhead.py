"""Durability overhead: WAL-backed commits vs raw ``apply_batch``.

The write-ahead log adds a serialize + framed append before every
commit.  With fsync off that bookkeeping must stay in the noise — the
acceptance bar is a WAL-backed session (``fsync="never"``) within 10%
of raw ``apply_batch`` throughput on the mixed-batch workload.  The
bench replays the same batch stream through a bare engine and through a
durable session in ``BENCH_ROUNDS`` paired rounds (alternating which
side runs first), asserts identical final cores, and — at meaningful
stream lengths — asserts the 10% bound on the median per-round ratio.

The fsync policies that actually hit the disk are *recorded*, not
gated: ``always`` pays one fsync per commit and ``interval`` amortizes
it, and both costs are hardware truths rather than code regressions.
A final bench measures recovery itself — scan, replay of the full log
into the latest snapshot's graph and one index build — so the artifact
tracks restart cost too.

Every bench appends a record to a ``BENCH_wal_overhead.json`` artifact;
set ``REPRO_BENCH_ARTIFACT_DIR`` to choose where it lands.
"""

import itertools
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
from repro.service import CoreService, log_stat

#: Ops per batch in the mixed-batch replay.
BATCH_SIZE = 50
#: Below this many ops the wall-clock assert is skipped (CI smoke
#: scales are too small for stable timing) but still recorded.
WALL_CLOCK_MIN_OPS = 200
#: The acceptance bound: fsync-off WAL within 10% of raw apply_batch.
OVERHEAD_BOUND = 1.10
#: Append count between fsyncs for the "interval" policy bench.
FSYNC_EVERY = 16

RECORDS, _artifact = artifact("wal_overhead", lambda: {
    "scale": BENCH_SCALE,
    "updates": BENCH_UPDATES,
    "batch_size": BATCH_SIZE,
    "rounds": BENCH_ROUNDS,
    "bound": OVERHEAD_BOUND,
})


def _workload():
    dataset = load_dataset("gowalla", scale=BENCH_SCALE, seed=BENCH_SEED)
    return mixed_batch_workload(
        dataset, BENCH_UPDATES, BATCH_SIZE, p=0.3, seed=BENCH_SEED
    )


def _replay_raw(workload, batches):
    engine = make_engine("order", workload.base_graph())
    started = time.perf_counter()
    for batch in batches:
        engine.apply_batch(batch)
    return engine, time.perf_counter() - started


def _replay_durable(workload, batches, log, **wal_opts):
    service = CoreService.open(
        workload.base_graph(), engine="order", log=log, **wal_opts
    )
    started = time.perf_counter()
    for batch in batches:
        service.apply(batch)
    elapsed = time.perf_counter() - started
    service.close()
    return service, elapsed


def _paired(workload, batches, tmp_path, **wal_opts):
    """:func:`paired_medians` of raw and durable replays; each durable
    replay gets a fresh log."""
    logs = (tmp_path / f"{wal_opts['fsync']}-{n}.wal"
            for n in itertools.count())
    return paired_medians(
        lambda: _replay_raw(workload, batches),
        lambda: _replay_durable(workload, batches, next(logs), **wal_opts),
    )


def _record(name, ops, paired, extra=None):
    entry = {
        "bench": name,
        "ops": ops,
        "raw_seconds": round(paired.baseline_s, 6),
        "wal_seconds": round(paired.candidate_s, 6),
        "raw_ops_per_sec": round(ops / paired.baseline_s, 1),
        "wal_ops_per_sec": round(ops / paired.candidate_s, 1),
        **paired.info("overhead_ratio"),
    }
    if extra:
        entry.update(extra)
    RECORDS.append(entry)
    print(f"\n{name}: durable/raw {paired}")
    return entry


def bench_wal_fsync_never_vs_raw(benchmark, tmp_path):
    """The acceptance workload: fsync-off durable session vs bare engine."""
    workload, plan, batches = _workload()

    paired = once(benchmark, _paired, workload, batches, tmp_path,
                  fsync="never")
    assert paired.baseline.core_numbers() == paired.candidate.cores(), (
        "durable replay diverged from raw apply_batch"
    )
    entry = _record(
        "fsync_never", len(plan), paired,
        extra={"fsync": "never", "batches": len(batches)},
    )
    benchmark.extra_info.update(entry)
    if len(plan) >= WALL_CLOCK_MIN_OPS:
        assert paired.ratio <= OVERHEAD_BOUND, (
            f"WAL overhead {paired} exceeds {OVERHEAD_BOUND}x"
        )


@pytest.mark.parametrize("fsync", ["interval", "always"])
def bench_wal_fsync_policies(benchmark, tmp_path, fsync):
    """Record (never gate) what the disk-hitting fsync policies cost."""
    workload, plan, batches = _workload()
    wal_opts = {"fsync": fsync}
    if fsync == "interval":
        wal_opts["fsync_every"] = FSYNC_EVERY

    paired = once(benchmark, _paired, workload, batches, tmp_path,
                  **wal_opts)
    entry = _record(
        f"fsync_{fsync}", len(plan), paired,
        extra={"fsync": fsync, "batches": len(batches)},
    )
    benchmark.extra_info.update(entry)


def bench_wal_recovery(benchmark, tmp_path):
    """Restart cost: scan, replay the full log into the base snapshot's
    graph, build the index once."""
    workload, plan, batches = _workload()
    log = tmp_path / "recovery.wal"
    service, _ = _replay_durable(workload, batches, log, fsync="never")
    expected = service.cores()

    def run():
        started = time.perf_counter()
        recovered = CoreService.recover(log)
        elapsed = time.perf_counter() - started
        recovered.close()
        return recovered, elapsed

    recovered, recover_s = once(benchmark, run)
    assert recovered.cores() == expected, "recovery diverged from live state"
    stat = log_stat(log)
    entry = {
        "bench": "recovery",
        "ops": len(plan),
        "records": stat["records"],
        "log_bytes": stat["bytes"],
        "recover_seconds": round(recover_s, 6),
        "replayed": recovered.recovery.replayed,
        "from_snapshot": recovered.recovery.from_snapshot,
    }
    RECORDS.append(entry)
    benchmark.extra_info.update(entry)
