"""Reads as lookups: the read index against the scan it replaces.

``CoreService.top``, ``spectrum`` and ``degeneracy`` answer from a
:class:`repro.analysis.kcore_views.CoreIndex` fed each commit's net
deltas; over a plain core mapping the same :mod:`kcore_views` functions
scan every vertex.  This bench commits a whole scenario through a
service without reading, so its index is still unbuilt, and then times
on the final state:

* ``top(10)`` and ``spectrum()`` per read, scan against index: each
  side is the mean of :data:`READS` reads, paired over :data:`ROUNDS`
  rounds that alternate which side runs first (``paired_medians``); the
  speedup is the median per-round ``scan / index``, with its IQR;
* the first read of a fresh index, which builds what it needs: ``top``
  builds the level counts and the heaps of the levels it walks,
  ``spectrum`` only the counts (median and IQR over the rounds).

Two states: relabel-storm's (perfbench's parameters: a 30k-vertex path
with chains, ~49k vertices at the end) and ``mixed`` at scale 10
(served-durable's family, ~1.5k vertices).  Every read's answer is
checked against the scan's.

The records land in ``BENCH_read_index.json`` (in
``REPRO_BENCH_ARTIFACT_DIR``, default ``.``) when the bench runs at the
default ``REPRO_BENCH_SCALE``, where both states are at perfbench's
sizes; that file is committed.  Any other scale sizes the states by
``scale / 0.5`` and writes ``BENCH_read_index-scale<scale>.json``, so a
smoke run never overwrites the committed numbers.  Timings are recorded,
never gated.
"""

import time

import pytest
from _bench_common import (
    BENCH_SCALE,
    BENCH_SEED,
    DEFAULT_SCALE,
    artifact,
    once,
    paired_medians,
    quartiles,
)

from repro.analysis import kcore_views
from repro.analysis.kcore_views import CoreIndex
from repro.engine.registry import DEFAULT_ENGINE
from repro.scenarios import make_scenario
from repro.service import CoreService

#: Rounds per timing, and reads per round.
ROUNDS = 7
READS = 10

#: ``top(n)``'s ``n``, as perfbench reads it.
TOP_N = 10

SIZE = BENCH_SCALE / DEFAULT_SCALE

STATES = {
    "relabel-storm": lambda: make_scenario(
        "relabel-storm", seed=BENCH_SEED, scale=125 * SIZE, ticks=400,
        chain=48, anchors=8,
    ),
    "mixed": lambda: make_scenario(
        "mixed", seed=BENCH_SEED, scale=10 * SIZE, tick_ops=10
    ),
}

RECORDS, _artifact = artifact("read_index", lambda: {
    "engine": DEFAULT_ENGINE,
    "scale": BENCH_SCALE,
    "seed": BENCH_SEED,
    "rounds": ROUNDS,
    "reads_per_round": READS,
}, committed=True)


def _per_read(read):
    """A paired side: the mean seconds of :data:`READS` calls of ``read``."""
    def side():
        started = time.perf_counter()
        for _ in range(READS):
            read()
        return None, (time.perf_counter() - started) / READS
    return side


def _speedup(scan, index) -> dict:
    """Per-read microseconds of ``scan`` and ``index``, and the median
    per-round ``scan / index`` with its IQR."""
    paired = paired_medians(_per_read(index), _per_read(scan), rounds=ROUNDS)
    return {
        "scan_us": round(1e6 * paired.candidate_s, 2),
        "index_us": round(1e6 * paired.baseline_s, 2),
        **paired.info("speedup"),
    }


def _first_read_ms(core, read) -> dict:
    """Median and IQR of ``read`` on a fresh index over ``core``."""
    times = []
    for _ in range(ROUNDS):
        index = CoreIndex(core)
        started = time.perf_counter()
        read(index)
        times.append(1e3 * (time.perf_counter() - started))
    q1, median, q3 = quartiles(times)
    return {"ms": round(median, 3), "ms_iqr": [round(q1, 3), round(q3, 3)]}


def _measure(name: str) -> dict:
    scenario = STATES[name]()
    svc = CoreService.open(scenario.base_graph(), engine=DEFAULT_ENGINE)
    for tick in scenario.ticks:
        svc.apply(tick.batch)
    index, core = svc.index, svc.engine.core
    assert index._counts is None  # no read yet: nothing built
    assert kcore_views.top_cores(index, TOP_N) == kcore_views.top_cores(
        dict(core), TOP_N
    )
    levels = kcore_views.core_spectrum(index)
    assert levels == kcore_views.core_spectrum(dict(core))
    top = _speedup(
        lambda: kcore_views.top_cores(core, TOP_N),
        lambda: kcore_views.top_cores(index, TOP_N),
    )
    spectrum = _speedup(
        lambda: kcore_views.core_spectrum(core),
        lambda: kcore_views.core_spectrum(index),
    )
    first_top = _first_read_ms(core, lambda i: kcore_views.top_cores(i, TOP_N))
    first_spectrum = _first_read_ms(core, kcore_views.core_spectrum)
    svc.close()
    return {
        "state": name,
        "vertices": len(core),
        "levels": len(levels),
        "commits": len(scenario.ticks),
        **{f"top_{key}": value for key, value in top.items()},
        **{f"spectrum_{key}": value for key, value in spectrum.items()},
        **{f"first_top_{key}": value for key, value in first_top.items()},
        **{f"first_spectrum_{key}": value
           for key, value in first_spectrum.items()},
    }


@pytest.mark.parametrize("state", list(STATES))
def bench_read_index(benchmark, state):
    record = once(benchmark, _measure, state)
    RECORDS.append(record)
    benchmark.extra_info.update(record)
