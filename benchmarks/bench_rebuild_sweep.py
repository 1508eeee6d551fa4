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
  maintained ones: it lands its ops on the graph and numbers and peels
  it, and then an empty ``maintain_batch`` times, as its own column,
  the deferred ``deg+`` / k-order / ``mcd`` build that the next
  maintained batch pays;
* ``run`` — ``rebuild_batch`` inside a run of rebuilt batches: one
  empty rebuilt batch before the cell starts the run, so every timed
  batch lands its ops on the kept vertex ids and peels them.

Each cell runs :data:`PASSES` passes, each on fresh engine copies, and
rotates which engine goes first from pass to pass.  Each pass yields
two estimates of ``C``::

    C_lone = (t_maintain / (t_lone + t_build)) * (|V| + |E|) / (ops * v)
    C_run  = (t_maintain / t_run) * (|V| + |E|) / (ops * v)

with ``t`` the pass's mean time per batch and ``v`` the mean
``visited`` per op: the rule trades total time, and a few costly
cascades carry much of a stream's maintain time.  Each is the factor at
which the rule would break even on that cell, for a batch that rebuilds
alone and for one inside a run.  A cell records the median and IQR over
its passes of every ``*_ms`` and ``c_*`` (and each pass's ``c_*``), and
whether the committed ``REBUILD_FACTOR`` picked the faster side, both
ways, by the median ratio of the two sides' times.  A family's
crossover is the median of its cells' medians; each ``C`` is the median
of the four family crossovers, and its IQR is that of the same ``C``
taken pass by pass.

The records land in ``BENCH_rebuild_sweep.json`` (in
``REPRO_BENCH_ARTIFACT_DIR``, default ``.``) when the bench runs at the
default ``REPRO_BENCH_SCALE``; that file is committed.  Any other scale
writes ``BENCH_rebuild_sweep-scale<scale>.json``, so a smoke run never
overwrites the committed numbers.  Only answers are asserted: every
engine ends every pass on ``core_numbers`` of its graph, and every pass
visits as many vertices.  Timings are recorded, never gated.
"""

import gc
import statistics
import time

import pytest
from _bench_common import BENCH_SCALE, BENCH_SEED, artifact, once, quartiles

from repro import core_numbers
from repro.engine import Batch, make_engine
from repro.engine.base import REBUILD_FACTOR
from repro.engine.registry import DEFAULT_ENGINE
from repro.scenarios import make_scenario

#: Batch sizes swept, in ops.
BATCH_SIZES = (8, 32, 128, 512, 2048)

#: Batches timed per cell (fewer when the stream runs out).
BATCHES = 5

#: Passes per cell, each on fresh engines.
PASSES = 5

#: Graph sizes, as multiples of perfbench's sizes for the family.
GRAPH_SIZES = (BENCH_SCALE, 2 * BENCH_SCALE)

#: The timed columns, in ms per batch.
COLUMNS = ("maintain", "lone", "build", "run")

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


def _crossovers(records: list[dict], case: str, pick) -> dict:
    """Family -> the median over its cells of ``pick(record)``, a
    cell's ``C`` for ``case``."""
    families = {}
    for family in FAMILIES:
        cells = [pick(r) for r in records
                 if r["family"] == family and r[f"c_{case}"] is not None]
        if cells:
            families[family] = statistics.median(cells)
    return families


def _summary(records: list[dict]) -> dict:
    summary = {}
    for case in ("lone", "run"):
        families = _crossovers(records, case, lambda r: r[f"c_{case}"])
        picked = [r[f"rule_picks_faster_{case}"] for r in records]
        summary[case] = {
            "crossover_by_family": {
                family: round(c, 2) for family, c in families.items()
            },
            "crossover": None,
            "crossover_iqr": None,
            "rule_picks_faster": f"{sum(picked)}/{len(picked)}",
        }
        if families:
            per_pass = [
                statistics.median(_crossovers(
                    records, case, lambda r: r[f"c_{case}_passes"][p]
                ).values())
                for p in range(PASSES)
            ]
            q1, _, q3 = quartiles(per_pass)
            summary[case]["crossover"] = round(
                statistics.median(families.values()), 2
            )
            summary[case]["crossover_iqr"] = [round(q1, 2), round(q3, 2)]
    summary["rebuild_factor"] = REBUILD_FACTOR
    return summary


RECORDS, _artifact = artifact("rebuild_sweep", lambda: {
    "engine": DEFAULT_ENGINE,
    "scale": BENCH_SCALE,
    "seed": BENCH_SEED,
    "batch_sizes": list(BATCH_SIZES),
    "passes": PASSES,
    "summary": _summary(RECORDS),
}, committed=True)


def _stream(scenario, warm_ticks):
    """The warmed-up graph and the op stream after it."""
    graph = scenario.base_graph()
    for tick in scenario.ticks[:warm_ticks]:
        tick.batch.apply_to(graph)
    ops = [op for tick in scenario.ticks[warm_ticks:] for op in tick.batch]
    return graph, ops


def _pass(graph, batches, first, truth):
    """Apply ``batches`` to three fresh engines over ``graph``, batch by
    batch, the engine at ``first`` going first; returns each column's
    total seconds and ``maintain``'s visits."""
    maintain, lone, run = (
        make_engine(DEFAULT_ENGINE, graph.copy()) for _ in range(3)
    )
    # Start a run: its first batch numbers the graph and keeps the ids
    # every timed batch then lands on and peels.
    run.rebuild_batch(Batch([]))
    seconds = dict.fromkeys(COLUMNS, 0.0)
    visited = 0

    def timed(column, call, batch):
        started = time.perf_counter()
        result = call(batch)
        seconds[column] += time.perf_counter() - started
        return result

    def maintain_step(batch):
        nonlocal visited
        visited += timed("maintain", maintain.maintain_batch, batch).visited

    def lone_step(batch):
        timed("lone", lone.rebuild_batch, batch)
        timed("build", lone.maintain_batch, Batch([]))

    def run_step(batch):
        timed("run", run.rebuild_batch, batch)

    steps = (maintain_step, lone_step, run_step)
    steps = steps[first:] + steps[:first]
    gc.collect()
    for batch in batches:
        for step in steps:
            step(batch)
    for engine in (maintain, lone, run):
        assert engine.core_numbers() == truth
    return seconds, visited


def _cell(graph, ops, size):
    """Time ``maintain_batch`` against a lone and a consecutive
    ``rebuild_batch`` on the same batches of ``size`` ops over
    :data:`PASSES` passes; returns the cell's record or ``None``."""
    count = min(BATCHES, len(ops) // size)
    if not count:
        return None
    batches = [Batch(ops[i * size:(i + 1) * size]) for i in range(count)]
    # |V| + |E| as the rule sees it: before each batch, averaged.
    final = graph.copy()
    sizes = []
    for batch in batches:
        sizes.append(final.n + final.m)
        batch.apply_to(final)
    graph_size = round(statistics.fmean(sizes))
    truth = core_numbers(final)
    passes = [_pass(graph, batches, p % 3, truth) for p in range(PASSES)]
    visits = {visited for _, visited in passes}
    assert len(visits) == 1, f"passes visited {sorted(visits)} vertices"
    per_op = visits.pop() / (count * size)
    ms = {column: [1e3 * seconds[column] / count for seconds, _ in passes]
          for column in COLUMNS}
    # Per pass, maintained over rebuilt time, for each way to rebuild.
    speedups = {
        "lone": [m / (lo + b) for m, lo, b in
                 zip(ms["maintain"], ms["lone"], ms["build"])],
        "run": [m / r for m, r in zip(ms["maintain"], ms["run"])],
    }
    rule = REBUILD_FACTOR * size * per_op >= graph_size
    record = {
        "ops": size,
        "batches": count,
        "graph_size": graph_size,
        "visited_per_op": round(per_op, 3),
    }
    for column, values in ms.items():
        q1, median, q3 = quartiles(values)
        record[f"{column}_ms"] = round(median, 3)
        record[f"{column}_ms_iqr"] = [round(q1, 3), round(q3, 3)]
    record["rule_rebuilds"] = rule
    for case, ratios in speedups.items():
        if per_op:
            c = [r * graph_size / (size * per_op) for r in ratios]
            q1, median, q3 = quartiles(c)
            record[f"c_{case}"] = round(median, 2)
            record[f"c_{case}_iqr"] = [round(q1, 2), round(q3, 2)]
            record[f"c_{case}_passes"] = [round(x, 2) for x in c]
        else:
            record[f"c_{case}"] = None
        record[f"rule_picks_faster_{case}"] = rule == (quartiles(ratios)[1] >= 1)
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

    records = once(benchmark, run)
    assert records
    RECORDS.extend(records)
    benchmark.extra_info.update(_summary(records))
