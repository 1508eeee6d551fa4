"""Rebuild or maintain: the sweep behind ``REBUILD_FACTOR``.

:meth:`repro.engine.base.CoreMaintainer.apply_batch` rebuilds the index
when ``C * ops * v >= |V| + |E|`` (``v``: the engine's running
``visited`` per op over the batches it maintained) and maintains it
otherwise.  The rule models a maintained batch as costing ``a * ops * v``
and a rebuild as ``b * (|V| + |E|)``, so the right ``C`` is ``a / b``.

This bench measures both sides on the default engine.  For each scenario
family (``sliding-window``, ``mixed``, ``burst``, ``relabel-storm``) at
two graph sizes, it warms a graph up, re-chunks the rest of the family's
op stream into batches of each size in :data:`BATCH_SIZES`, and applies
the same batches to three engines on the same graph, timed batch by
batch, alternately, so a host slowdown hits all three:

* ``maintain`` — ``maintain_batch`` (the run loop);
* ``lone`` — ``rebuild_batch`` as a lone rebuilt batch between
  maintained ones: it peels the graph, and then an empty
  ``maintain_batch`` times, as its own column, the deferred ``deg+`` /
  k-order / ``mcd`` build that the next maintained batch pays;
* ``run`` — ``rebuild_batch`` inside a run of rebuilt batches: two
  empty rebuilt batches before the cell start the run, so every timed
  batch lands its ops on the kept vertex ids and peels them.

Each cell then yields two estimates of ``C``::

    C_lone = (t_maintain / (t_lone + t_build)) * (|V| + |E|) / (ops * v)
    C_run  = (t_maintain / t_run) * (|V| + |E|) / (ops * v)

with ``t`` the mean time per batch and ``v`` the mean ``visited`` per
op: the rule trades total time, and a few costly cascades carry much of
a stream's maintain time.  Each is the factor at which the rule would
break even on that cell, for a batch that rebuilds alone and for one
inside a run.  A family's crossover is the median of its cells; each
``C`` is the median of the four family crossovers.  Every cell also
records whether the committed ``REBUILD_FACTOR`` picked the faster side,
both ways.

The records land in ``BENCH_rebuild_sweep.json`` (in
``REPRO_BENCH_ARTIFACT_DIR``, default ``.``) when the bench runs at the
default ``REPRO_BENCH_SCALE``; that file is committed.  Any other scale
writes ``BENCH_rebuild_sweep-scale<scale>.json``, so a smoke run never
overwrites the committed numbers.  Only answers are asserted: every
engine ends every cell on ``core_numbers`` of its graph.  Timings are
recorded, never gated.
"""

import gc
import json
import os
import statistics
import time
from pathlib import Path

import pytest
from _bench_common import BENCH_SCALE, BENCH_SEED

from repro import core_numbers
from repro.engine import Batch, make_engine
from repro.engine.base import REBUILD_FACTOR
from repro.engine.registry import DEFAULT_ENGINE
from repro.scenarios import make_scenario

#: The scale whose output is the committed file.
DEFAULT_SCALE = 0.5

#: Batch sizes swept, in ops.
BATCH_SIZES = (8, 32, 128, 512, 2048)

#: Batches timed per cell (fewer when the stream runs out).
BATCHES = 5

#: Graph sizes, as multiples of perfbench's sizes for the family.
GRAPH_SIZES = (BENCH_SCALE, 2 * BENCH_SCALE)

_RECORDS: list[dict] = []


def _sliding_window(size):
    # perfbench window-churn at size 1: ~1.2k vertices, ~4.8k live edges.
    arrivals = max(4, int(120 * size))
    return make_scenario(
        "sliding-window", seed=BENCH_SEED, scale=10 * size,
        ticks=40 + 4 * 2048 // (2 * arrivals) + 1, arrivals=arrivals,
        window=40,
    ), 40


def _mixed(size):
    # perfbench served-durable's family: ~1.5k vertices at size 1.
    return make_scenario(
        "mixed", seed=BENCH_SEED, scale=10 * size, tick_ops=10
    ), 0


def _burst(size):
    return make_scenario(
        "burst", seed=BENCH_SEED, scale=10 * size, ticks=400
    ), 0


def _relabel_storm(size):
    # perfbench relabel-storm at size 1: a 30k-vertex path.
    return make_scenario(
        "relabel-storm", seed=BENCH_SEED, scale=125 * size, ticks=200,
        chain=48, anchors=8,
    ), 0


FAMILIES = {
    "sliding-window": _sliding_window,
    "mixed": _mixed,
    "burst": _burst,
    "relabel-storm": _relabel_storm,
}


def _artifact_path() -> Path:
    name = (
        "BENCH_rebuild_sweep.json" if BENCH_SCALE == DEFAULT_SCALE
        else f"BENCH_rebuild_sweep-scale{BENCH_SCALE:g}.json"
    )
    return Path(os.environ.get("REPRO_BENCH_ARTIFACT_DIR", ".")) / name


def _summary(records: list[dict]) -> dict:
    summary = {}
    for case in ("lone", "run"):
        families = {}
        for family in FAMILIES:
            cells = [r[f"c_{case}"] for r in records
                     if r["family"] == family and r[f"c_{case}"] is not None]
            if cells:
                families[family] = round(statistics.median(cells), 2)
        picked = [r[f"rule_picks_faster_{case}"] for r in records]
        summary[case] = {
            "crossover_by_family": families,
            "crossover": (
                round(statistics.median(families.values()), 2)
                if families else None
            ),
            "rule_picks_faster": f"{sum(picked)}/{len(picked)}",
        }
    summary["rebuild_factor"] = REBUILD_FACTOR
    return summary


@pytest.fixture(scope="module", autouse=True)
def _emit_artifact():
    """Write the accumulated records once the module's benches finish."""
    _RECORDS.clear()
    yield
    _artifact_path().write_text(
        json.dumps(
            {
                "benchmark": "rebuild_sweep",
                "engine": DEFAULT_ENGINE,
                "scale": BENCH_SCALE,
                "seed": BENCH_SEED,
                "batch_sizes": list(BATCH_SIZES),
                "summary": _summary(_RECORDS),
                "records": _RECORDS,
            },
            indent=2,
        )
        + "\n"
    )


def _stream(scenario, warm_ticks):
    """The warmed-up graph and the op stream after it."""
    graph = scenario.base_graph()
    for tick in scenario.ticks[:warm_ticks]:
        tick.batch.apply_to(graph)
    ops = [op for tick in scenario.ticks[warm_ticks:] for op in tick.batch]
    return graph, ops


def _timed(call, *args):
    started = time.perf_counter()
    result = call(*args)
    return result, time.perf_counter() - started


def _cell(graph, ops, size):
    """Time ``maintain_batch`` against a lone and a consecutive
    ``rebuild_batch`` on the same batches of ``size`` ops; returns the
    cell's record or ``None``."""
    count = min(BATCHES, len(ops) // size)
    if not count:
        return None
    maintain, lone, run = (
        make_engine(DEFAULT_ENGINE, graph.copy()) for _ in range(3)
    )
    # Start a run: its first batch peels the graph, its second numbers
    # it and keeps the ids every timed batch then peels.
    for _ in range(2):
        run.rebuild_batch(Batch([]))
    times = {"maintain": [], "lone": [], "build": [], "run": []}
    sizes = []
    visited = 0
    gc.collect()
    for i in range(count):
        batch = Batch(ops[i * size:(i + 1) * size])
        sizes.append(maintain.graph.n + maintain.graph.m)
        result, seconds = _timed(maintain.maintain_batch, batch)
        visited += result.visited
        times["maintain"].append(seconds)
        times["lone"].append(_timed(lone.rebuild_batch, batch)[1])
        times["build"].append(_timed(lone.maintain_batch, Batch([]))[1])
        times["run"].append(_timed(run.rebuild_batch, batch)[1])
    for engine in (maintain, lone, run):
        assert engine.core_numbers() == core_numbers(engine.graph)
        assert engine.core_numbers() == maintain.core_numbers()
    per_op = visited / (count * size)
    # |V| + |E| as the rule sees it: before each batch, averaged.
    graph_size = round(statistics.fmean(sizes))
    mean = {name: statistics.fmean(t) for name, t in times.items()}
    tm = mean["maintain"]
    rebuilt = {"lone": mean["lone"] + mean["build"], "run": mean["run"]}
    rule = REBUILD_FACTOR * size * per_op >= graph_size
    record = {
        "ops": size,
        "batches": count,
        "graph_size": graph_size,
        "visited_per_op": round(per_op, 3),
        **{f"{name}_ms": round(1e3 * t, 3) for name, t in mean.items()},
        "rule_rebuilds": rule,
    }
    for case, tr in rebuilt.items():
        record[f"c_{case}"] = (
            round(tm / tr * graph_size / (size * per_op), 2)
            if per_op else None
        )
        record[f"rule_picks_faster_{case}"] = rule == (tr <= tm)
    return record


@pytest.mark.parametrize("family", list(FAMILIES))
def bench_rebuild_sweep(benchmark, family):
    def run():
        records = []
        for size in GRAPH_SIZES:
            graph, ops = _stream(*FAMILIES[family](size))
            for batch_size in BATCH_SIZES:
                record = _cell(graph, ops, batch_size)
                if record is not None:
                    records.append(
                        {"family": family, "graph_scale": size, **record}
                    )
        return records

    records = benchmark.pedantic(run, rounds=1, iterations=1)
    assert records
    _RECORDS.extend(records)
    benchmark.extra_info.update(_summary(records))
