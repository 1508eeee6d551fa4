"""Reads as lookups: the read index against the scan it replaces.

``CoreService.top``, ``spectrum`` and ``degeneracy`` answer from a
:class:`repro.analysis.kcore_views.CoreIndex` fed each commit's net
deltas; over a plain core mapping the same :mod:`kcore_views` functions
scan every vertex.  This bench commits a whole scenario through a
service without reading, so its index is still unbuilt, and then times
on the final state:

* ``top(10)`` and ``spectrum()`` per read, scan against index, each the
  median over :data:`ROUNDS` rounds of the mean of :data:`READS` reads
  (the two sides alternate which runs first);
* the first read of a fresh index, which builds what it needs: ``top``
  builds the level counts and the heaps of the levels it walks,
  ``spectrum`` only the counts (median over the rounds).

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

import json
import os
import statistics
import time
from pathlib import Path

import pytest
from _bench_common import BENCH_SCALE, BENCH_SEED

from repro.analysis import kcore_views
from repro.analysis.kcore_views import CoreIndex
from repro.engine.registry import DEFAULT_ENGINE
from repro.scenarios import make_scenario
from repro.service import CoreService

#: The scale whose output is the committed file.
DEFAULT_SCALE = 0.5

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

_RECORDS: list[dict] = []


def _artifact_path() -> Path:
    name = (
        "BENCH_read_index.json" if BENCH_SCALE == DEFAULT_SCALE
        else f"BENCH_read_index-scale{BENCH_SCALE:g}.json"
    )
    return Path(os.environ.get("REPRO_BENCH_ARTIFACT_DIR", ".")) / name


@pytest.fixture(scope="module", autouse=True)
def _emit_artifact():
    """Write the accumulated records once the module's benches finish."""
    _RECORDS.clear()
    yield
    _artifact_path().write_text(
        json.dumps(
            {
                "benchmark": "read_index",
                "engine": DEFAULT_ENGINE,
                "scale": BENCH_SCALE,
                "seed": BENCH_SEED,
                "rounds": ROUNDS,
                "reads_per_round": READS,
                "records": _RECORDS,
            },
            indent=2,
        )
        + "\n"
    )


def _per_read_us(read) -> float:
    started = time.perf_counter()
    for _ in range(READS):
        read()
    return 1e6 * (time.perf_counter() - started) / READS


def _paired(scan, index) -> tuple[float, float]:
    """Median per-read microseconds of ``scan`` and ``index``."""
    times: tuple[list, list] = ([], [])
    sides = (scan, index)
    for round_ in range(ROUNDS):
        for side in (0, 1) if round_ % 2 == 0 else (1, 0):
            times[side].append(_per_read_us(sides[side]))
    return statistics.median(times[0]), statistics.median(times[1])


def _first_read_ms(core, read) -> float:
    """Median time of ``read`` on a fresh index over ``core``."""
    times = []
    for _ in range(ROUNDS):
        index = CoreIndex(core)
        started = time.perf_counter()
        read(index)
        times.append(1e3 * (time.perf_counter() - started))
    return statistics.median(times)


def _measure(name: str) -> dict:
    scenario = STATES[name]()
    svc = CoreService.open(scenario.base_graph(), engine=DEFAULT_ENGINE)
    for tick in scenario.ticks:
        svc.apply(tick.batch)
    index, core = svc.index, svc.engine.core
    assert index._counts is None  # no read yet: nothing built
    top = kcore_views.top_cores(index, TOP_N)
    spectrum = kcore_views.core_spectrum(index)
    assert top == kcore_views.top_cores(dict(core), TOP_N)
    assert spectrum == kcore_views.core_spectrum(dict(core))
    top_scan, top_index = _paired(
        lambda: kcore_views.top_cores(core, TOP_N),
        lambda: kcore_views.top_cores(index, TOP_N),
    )
    spectrum_scan, spectrum_index = _paired(
        lambda: kcore_views.core_spectrum(core),
        lambda: kcore_views.core_spectrum(index),
    )
    svc.close()
    return {
        "state": name,
        "vertices": len(core),
        "levels": len(spectrum),
        "commits": len(scenario.ticks),
        "top_scan_us": round(top_scan, 2),
        "top_index_us": round(top_index, 2),
        "top_speedup": round(top_scan / top_index, 1),
        "spectrum_scan_us": round(spectrum_scan, 2),
        "spectrum_index_us": round(spectrum_index, 2),
        "spectrum_speedup": round(spectrum_scan / spectrum_index, 1),
        "first_top_ms": round(_first_read_ms(
            core, lambda i: kcore_views.top_cores(i, TOP_N)), 3),
        "first_spectrum_ms": round(_first_read_ms(
            core, kcore_views.core_spectrum), 3),
    }


@pytest.mark.parametrize("state", list(STATES))
def bench_read_index(benchmark, state):
    record = benchmark.pedantic(_measure, args=(state,), rounds=1,
                                iterations=1)
    _RECORDS.append(record)
    benchmark.extra_info.update(record)
