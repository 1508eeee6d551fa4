"""Shared configuration, timing and artifacts for the benchmark suite.

Each module regenerates one table/figure of the paper at a bench-friendly
scale (see DESIGN.md §2: pure Python is 100-1000x slower than the authors'
C++, so sizes are scaled down; run the CLI with ``--scale`` / ``--updates``
for bigger runs).  ``benchmark.extra_info`` carries the headline numbers so
``pytest benchmarks/ --benchmark-only`` output doubles as the results log.

One timing discipline: a bench that compares two timed sides does it
through :func:`paired_medians` (alternated rounds, the median per-round
ratio and its quartiles); a bench that repeats one timing reads its
median and spread from :func:`quartiles`; ``once()`` runs the
single-pass figure rows.  :func:`artifact` writes every
``BENCH_<name>.json``.
"""

from __future__ import annotations

import gc
import json
import os
import statistics
from pathlib import Path
from typing import Any, Callable, NamedTuple

import pytest

from repro.bench.runner import run_updates
from repro.engine import make_engine

#: Dataset scale for benches (intentionally small; override via env).
BENCH_SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "0.5"))

#: The scale whose artifacts are committed (see :func:`artifact`).
DEFAULT_SCALE = 0.5

#: Update-stream length per dataset.
BENCH_UPDATES = int(os.environ.get("REPRO_BENCH_UPDATES", "250"))

#: Datasets exercised by the heavier per-dataset benches.  A light subset
#: keeps the suite fast; the CLI runs all 11.
BENCH_DATASETS = ("facebook", "gowalla", "ca", "patents")

#: Seed shared by every bench.
BENCH_SEED = 42

#: Paired rounds behind each two-sided comparison (override via env).
BENCH_ROUNDS = int(os.environ.get("REPRO_BENCH_ROUNDS", "15"))


def once(benchmark, fn, *args, **kwargs):
    """Run ``fn`` exactly once under the benchmark clock.

    The figure rows are end-to-end workload replays (minutes at paper
    scale); statistical rounds would multiply runtime without adding
    information, so each row is a single measured round.  A comparison
    of two timed sides never reads it: that is :func:`paired_medians`.
    """
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)


def quartiles(values) -> tuple[float, float, float]:
    """``(q1, median, q3)`` of repeated measurements."""
    values = list(values)
    median = statistics.median(values)
    if len(values) < 2:
        return median, median, median
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


class Paired(NamedTuple):
    """Two sides timed over alternated rounds (:func:`paired_medians`)."""

    #: Each side's median seconds.
    baseline_s: float
    candidate_s: float
    #: The median over rounds of ``candidate / baseline`` seconds.
    ratio: float
    #: The quartiles ``(q1, q3)`` of those per-round ratios.
    spread: tuple[float, float]
    rounds: int
    #: The last round's results.
    baseline: Any
    candidate: Any

    def __str__(self) -> str:
        q1, q3 = self.spread
        return (
            f"{self.ratio:.3f} (IQR {q1:.3f}-{q3:.3f} over {self.rounds} "
            f"alternated rounds)"
        )

    def info(self, key: str) -> dict:
        """``extra_info`` / record entries: ``key`` is the ratio,
        ``<key>_iqr`` its quartiles."""
        return {
            key: round(self.ratio, 4),
            f"{key}_iqr": [round(q, 4) for q in self.spread],
        }


def paired_medians(baseline, candidate, rounds=BENCH_ROUNDS) -> Paired:
    """Two replays timed over ``rounds`` paired rounds.

    ``baseline()`` and ``candidate()`` each run once per round and
    return ``(result, seconds)``; the side that runs first alternates
    between rounds, so drift and warm-up hit both sides equally.  The
    statistic a gate compares is :attr:`Paired.ratio`, the median over
    rounds of ``candidate / baseline`` seconds, so a slow stretch of a
    shared host, which hits both sides of a round, cannot decide it.
    Each side starts after a full collection, so neither pays for the
    garbage the other, or an earlier bench, left behind.
    """
    sides = (baseline, candidate)
    times: tuple[list, list] = ([], [])
    results = [None, None]
    for round_ in range(rounds):
        for side in (0, 1) if round_ % 2 == 0 else (1, 0):
            gc.collect()
            results[side], seconds = sides[side]()
            times[side].append(seconds)
    q1, ratio, q3 = quartiles(c / b for b, c in zip(*times))
    return Paired(
        statistics.median(times[0]), statistics.median(times[1]),
        ratio, (q1, q3), rounds, *results,
    )


def artifact(name: str, header: Callable[[], dict] = dict, *,
             committed: bool = False):
    """A module's records and the fixture that writes them.

    Returns ``(records, fixture)``: the benches append to ``records``,
    and once the module's last bench finishes the module-scoped autouse
    ``fixture`` writes ``{"benchmark": name, **header(), "records":
    records}`` to ``BENCH_<name>.json`` in ``REPRO_BENCH_ARTIFACT_DIR``
    (default ``.``).  A ``committed`` artifact keeps that name only at
    :data:`DEFAULT_SCALE`; any other scale writes
    ``BENCH_<name>-scale<s>.json``, so a smoke run never overwrites the
    committed numbers.  Bind the fixture to a module-level name so
    pytest collects it.
    """
    records: list[dict] = []

    @pytest.fixture(scope="module", autouse=True)
    def write():
        records.clear()
        yield
        stem = f"BENCH_{name}"
        if committed and BENCH_SCALE != DEFAULT_SCALE:
            stem += f"-scale{BENCH_SCALE:g}"
        directory = Path(os.environ.get("REPRO_BENCH_ARTIFACT_DIR", "."))
        directory.mkdir(parents=True, exist_ok=True)
        payload = {"benchmark": name, **header(), "records": records}
        (directory / f"{stem}.json").write_text(
            json.dumps(payload, indent=2) + "\n"
        )

    return records, write


def replay_side(engine_name: str, graph, edges, kind: str):
    """A :func:`paired_medians` side: ``edges`` replayed one update at a
    time (``kind`` is ``"insert"`` or ``"remove"``) on a fresh
    ``engine_name`` over ``graph()``; the update time is the side's."""
    def side():
        engine = make_engine(engine_name, graph())
        return engine, run_updates(engine, edges, kind).total_seconds
    return side
