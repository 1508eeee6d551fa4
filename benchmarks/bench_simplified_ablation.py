"""Head-to-head ablation: ``order`` vs ``order-simplified``.

Both engines store the same index and run the *same* scan and cascade
kernel; the only difference is the ``mcd`` upkeep around it.  The paper's
``order`` engine repairs ``mcd`` with a targeted recomputation pass after
every update (charged as ``mcd_recomputations``); the simplified engine
(Guo & Sekerinski, arXiv 2201.07103) uses ``mcd == d_in + d_out`` to keep
it exact with O(1) endpoint upkeep, one pass over the promoted vertices
and the incremental removal cascade, so the repair pass disappears.  Its
chargeable work is the candidate scan (``candidate_visits``).

Three replays on the Table II workloads, all asserting core agreement:

* per-edge insertion (the Table II left half, order family only);
* per-edge removal (the right half) — a parity row: both engines run
  the one removal path of ``OrderFamilyMaintainer`` and differ only in
  the counter they charge, so it checks that they agree and records
  timings that should tie;
* a mixed batched stream through the run loop (``maintain_batch``,
  which ``apply_batch`` skips for ticks large enough to rebuild) — one
  recorded ``mixed`` scenario replayed tick-for-tick on both engines.  Since the
  simplified engine gained batch-native runs, both sides amortize their
  bookkeeping across joint cascades here; this head-to-head decides the
  registry default (see ROADMAP).

Wall-clock is asserted only as a sanity bound (and only at meaningful
stream lengths — tiny CI smoke runs record numbers without flaking);
the counter comparison is exact and always asserted.  Every bench
appends a record to ``BENCH_simplified_ablation.json`` (seconds +
ops/sec per engine, counter head-to-head); set
``REPRO_BENCH_ARTIFACT_DIR`` to choose where it lands.
"""

import json
import os
from pathlib import Path

import pytest
from _bench_common import BENCH_SCALE, BENCH_SEED, BENCH_UPDATES, once

from repro.bench.runner import run_updates
from repro.bench.workloads import make_workload
from repro.engine import make_engine
from repro.graphs.datasets import load_dataset
from repro.scenarios import make_scenario

#: Datasets for the ablation (social + citation: the regimes where the
#: paper's order-based gains are largest).
ABLATION_DATASETS = ("facebook", "gowalla", "patents")
#: Below this many ops the wall-clock sanity bound is skipped (tiny runs
#: are timer noise) but the numbers are still recorded.
WALL_CLOCK_MIN_OPS = 500
#: Sanity bound: the simplified engine must never be worse than this
#: factor of the default order engine on the same replay.  Deliberately
#: loose — this guards against a regression breaking the no-repair
#: claim, not a strict wall-clock win (pure-Python timing at bench scale
#: is too noisy to hard-fail on).
SANITY_FACTOR = 1.5

_RECORDS: list[dict] = []


@pytest.fixture(scope="module", autouse=True)
def _emit_artifact():
    """Write the accumulated records once the module's benches finish."""
    _RECORDS.clear()
    yield
    path = (
        Path(os.environ.get("REPRO_BENCH_ARTIFACT_DIR", "."))
        / "BENCH_simplified_ablation.json"
    )
    path.write_text(
        json.dumps(
            {
                "benchmark": "simplified_ablation",
                "scale": BENCH_SCALE,
                "updates": BENCH_UPDATES,
                "sanity_factor": SANITY_FACTOR,
                "records": _RECORDS,
            },
            indent=2,
        )
    )


def _record(name, ops, order_s, simplified_s, counters):
    entry = {
        "bench": name,
        "ops": ops,
        "order_seconds": round(order_s, 6),
        "simplified_seconds": round(simplified_s, 6),
        "order_ops_per_sec": round(ops / order_s, 1) if order_s else None,
        "simplified_ops_per_sec": (
            round(ops / simplified_s, 1) if simplified_s else None
        ),
        "simplified_speedup": (
            round(order_s / simplified_s, 3) if simplified_s else None
        ),
        "counters": counters,
    }
    _RECORDS.append(entry)
    return entry


def _assert_sanity(name, ops, order_s, simplified_s):
    if ops >= WALL_CLOCK_MIN_OPS:
        assert simplified_s < order_s * SANITY_FACTOR, (
            f"{name}: simplified replay fell outside the sanity bound "
            f"({simplified_s:.3f}s vs {order_s:.3f}s x{SANITY_FACTOR})"
        )


@pytest.mark.parametrize("dataset", ABLATION_DATASETS)
def bench_simplified_insert(benchmark, dataset):
    """Per-edge insertion replay: scan work identical, repair pass gone."""
    workload = make_workload(
        load_dataset(dataset, scale=BENCH_SCALE, seed=BENCH_SEED),
        BENCH_UPDATES,
        seed=BENCH_SEED,
    )

    def run():
        order = make_engine("order", workload.base_graph())
        order_log = run_updates(order, workload.update_edges, "insert")
        simplified = make_engine("order-simplified", workload.base_graph())
        simplified_log = run_updates(
            simplified, workload.update_edges, "insert"
        )
        assert order.core_numbers() == simplified.core_numbers()
        return order, order_log, simplified, simplified_log

    order, order_log, simplified, simplified_log = once(benchmark, run)
    # Same algorithmic search space on both sides; the bookkeeping the
    # simplified engine dropped shows up only in the default engine's
    # repair counter.
    assert simplified_log.total_visited == order_log.total_visited
    assert order.mcd_recomputations > 0
    assert not hasattr(simplified, "mcd_recomputations")
    entry = _record(
        f"insert[{dataset}]",
        len(workload.update_edges),
        order_log.total_seconds,
        simplified_log.total_seconds,
        {
            "visited": order_log.total_visited,
            "mcd_recomputations": order.mcd_recomputations,
            "candidate_visits": simplified.candidate_visits,
            "order_queries_order": order.sequence_stats.order_queries,
            "order_queries_simplified": (
                simplified.sequence_stats.order_queries
            ),
        },
    )
    benchmark.extra_info.update(entry)
    _assert_sanity(
        entry["bench"], entry["ops"],
        order_log.total_seconds, simplified_log.total_seconds,
    )


@pytest.mark.parametrize("dataset", ABLATION_DATASETS)
def bench_simplified_remove(benchmark, dataset):
    """Per-edge removal replay, a parity row: both engines share one
    removal path, so visits agree and the simplified engine's counter
    charges exactly those visits."""
    workload = make_workload(
        load_dataset(dataset, scale=BENCH_SCALE, seed=BENCH_SEED),
        BENCH_UPDATES,
        seed=BENCH_SEED,
    )
    removals = list(reversed(workload.update_edges))

    def run():
        order = make_engine("order", workload.full_graph())
        order_log = run_updates(order, removals, "remove")
        simplified = make_engine("order-simplified", workload.full_graph())
        simplified_log = run_updates(simplified, removals, "remove")
        assert order.core_numbers() == simplified.core_numbers()
        return order, order_log, simplified, simplified_log

    order, order_log, simplified, simplified_log = once(benchmark, run)
    assert simplified_log.total_visited == order_log.total_visited
    assert simplified.candidate_visits == order_log.total_visited
    assert order.mcd_recomputations > 0
    entry = _record(
        f"remove[{dataset}]",
        len(removals),
        order_log.total_seconds,
        simplified_log.total_seconds,
        {
            "visited": order_log.total_visited,
            "mcd_recomputations": order.mcd_recomputations,
            "candidate_visits": simplified.candidate_visits,
            "order_queries_order": order.sequence_stats.order_queries,
            "order_queries_simplified": (
                simplified.sequence_stats.order_queries
            ),
        },
    )
    benchmark.extra_info.update(entry)
    _assert_sanity(
        entry["bench"], entry["ops"],
        order_log.total_seconds, simplified_log.total_seconds,
    )


def bench_simplified_mixed_batches(benchmark):
    """Mixed batched stream through the run loop (``maintain_batch``) —
    both engines run batch-native removal runs, so this head-to-head is
    what decides
    the registry default.  The stream is one recorded ``mixed`` scenario
    (the canonical :func:`repro.scenarios.make_scenario` generator),
    built once and replayed tick-for-tick on both engines: byte-identical
    across engines and across runs at the same seed/scale, never
    re-seeded per engine.
    """
    # Size the scenario so the op count tracks BENCH_UPDATES (the mixed
    # generator's n is 150 * scale, and the plan is ~1.1 ops per vertex).
    scenario = make_scenario(
        "mixed",
        seed=BENCH_SEED,
        scale=BENCH_UPDATES / 150,
        tick_ops=50,
        p=0.3,
    )
    batches = [tick.batch for tick in scenario.ticks]

    # The kernels head to head: the run loop on every tick, never the
    # rebuild that apply_batch picks for large ticks (same on both).
    def run():
        order = make_engine("order", scenario.base_graph())
        order_results = [order.maintain_batch(b) for b in batches]
        simplified = make_engine("order-simplified", scenario.base_graph())
        simplified_results = [simplified.maintain_batch(b) for b in batches]
        assert order.core_numbers() == simplified.core_numbers()
        return order_results, simplified_results

    order_results, simplified_results = once(benchmark, run)
    order_s = sum(r.seconds for r in order_results)
    simplified_s = sum(r.seconds for r in simplified_results)
    # The counter swap, visible at the BatchResult level.
    assert not any(
        "mcd_recomputations" in r.counters for r in simplified_results
    )
    assert not any(
        "candidate_visits" in r.counters for r in order_results
    )
    entry = _record(
        "mixed_batches[scenario:mixed]",
        scenario.n_ops,
        order_s,
        simplified_s,
        {
            "batches": len(batches),
            "mcd_recomputations": sum(
                r.counters.get("mcd_recomputations", 0)
                for r in order_results
            ),
            "candidate_visits": sum(
                r.counters.get("candidate_visits", 0)
                for r in simplified_results
            ),
        },
    )
    benchmark.extra_info.update(entry)
    _assert_sanity(entry["bench"], entry["ops"], order_s, simplified_s)
