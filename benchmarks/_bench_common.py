"""Shared configuration for the benchmark suite.

Each module regenerates one table/figure of the paper at a bench-friendly
scale (see DESIGN.md §2: pure Python is 100-1000x slower than the authors'
C++, so sizes are scaled down; run the CLI with ``--scale`` / ``--updates``
for bigger runs).  ``benchmark.extra_info`` carries the headline numbers so
``pytest benchmarks/ --benchmark-only`` output doubles as the results log.
"""

from __future__ import annotations

import os
import statistics

#: Dataset scale for benches (intentionally small; override via env).
BENCH_SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "0.5"))

#: Update-stream length per dataset.
BENCH_UPDATES = int(os.environ.get("REPRO_BENCH_UPDATES", "250"))

#: Datasets exercised by the heavier per-dataset benches.  A light subset
#: keeps the suite fast; the CLI runs all 11.
BENCH_DATASETS = ("facebook", "gowalla", "ca", "patents")

#: Seed shared by every bench.
BENCH_SEED = 42


def once(benchmark, fn, *args, **kwargs):
    """Run ``fn`` exactly once under the benchmark clock.

    The experiments are end-to-end workload replays (minutes at paper
    scale); statistical rounds would multiply runtime without adding
    information, so every bench uses a single measured round.
    """
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)


#: Paired rounds behind each overhead gate (override via env).
BENCH_ROUNDS = int(os.environ.get("REPRO_BENCH_ROUNDS", "15"))


def paired_medians(baseline, candidate, rounds=BENCH_ROUNDS):
    """Two replays timed over ``rounds`` paired rounds.

    ``baseline()`` and ``candidate()`` each run once per round and
    return ``(result, seconds)``; the side that runs first alternates
    between rounds, so drift and warm-up hit both sides equally.
    Returns ``(baseline_s, candidate_s, ratio, baseline_result,
    candidate_result)``: each side's median seconds, the median over
    rounds of ``candidate / baseline`` seconds — the statistic a gate
    compares, so a slow stretch of a shared host, which hits both sides
    of a round, cannot decide it — and the last round's results.
    """
    sides = (baseline, candidate)
    times: tuple[list, list] = ([], [])
    results = [None, None]
    for round_ in range(rounds):
        for side in (0, 1) if round_ % 2 == 0 else (1, 0):
            results[side], seconds = sides[side]()
            times[side].append(seconds)
    ratio = statistics.median(c / b for b, c in zip(*times))
    return (statistics.median(times[0]), statistics.median(times[1]), ratio,
            *results)
