"""Run one benchmark workload for a fixed time and print its metrics.

Usage, from the root of a checkout of the repository::

    python3 perfbench/run.py --workload window-churn --seed 1 \\
        --seconds 20 --trace 0

The run repeats identical rounds of the workload until ``--seconds`` is
used up, then prints two JSON lines on standard output: a detail record
(the workload's family, seed, parameters, tick and op counts, why it
exists, sample counts and the seed-fixed counts), and last the result
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` gives
the end-to-end metrics; ``--trace 1`` alternates untraced and traced
rounds and gives the per-layer metrics, writing the traced rounds'
spans under ``.bench_work/``.

Every end-to-end metric is the median over rounds of each round's own
figure.  End-to-end times are scaled to a reference host speed: a fixed
pure-Python calibration loop is timed between the phases of every round
(set-up, commits, reads, recovery) and every few tenths of a second
inside them, and each phase's times are divided by how much slower than
the reference the loops of that phase ran on average (see
``CALIBRATION_REF_S``).  The detail record carries each round's factors
and the unscaled metrics.

Every round checks its outputs off the clock.  A failed check, or a
seed-fixed count that differs between rounds or from an earlier run of
the same code and seed, prints ``"correct": false`` with no metrics and
exits 1.  Without ``src/repro`` next to this directory the run exits 2
before measuring anything.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import heapq
import json
import os
import random
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work"

#: Seconds :func:`calibration_s` takes on the reference host (a shared
#: 2-vCPU VM running CPython 3.11, in its typical state).  The
#: end-to-end times of each phase of a round are scaled to that speed:
#: the host's speed was seen to swing 1.8x between runs minutes apart,
#: more than any useful regression bound, while the calibration loop
#: timed beside the work tracks those swings (correlation 0.81 between
#: a 20-tick stretch of window-churn commits and the loops on either
#: side of it).
CALIBRATION_REF_S = 0.05

#: Seed-fixed per-layer counts, reported as measured in round one.
COUNT_METRICS = (
    "engine.visited", "engine.changed", "engine.candidate_visits",
    "sequence.relabels", "sequence.order_queries", "wal.bytes_per_op",
)
TALLY_METRICS = (
    "server.shed", "server.deadline_expired", "client.retries",
    "events.delivered", "events.dropped",
)

UNITS = {
    "setup_s": "s", "ops_per_s": "op/s", "commit_p50_ms": "ms",
    "commit_p90_ms": "ms", "read_p50_ms": "ms", "read_p90_ms": "ms",
    "recover_s": "s", "peak_rss_mb": "MB", "ok_frac": "ratio",
    "batch.check_us": "us/op", "engine.apply_us": "us/op",
    "engine.visited": "count", "engine.changed": "count",
    "engine.visit_ratio": "ratio", "engine.candidate_visits": "count",
    "sequence.relabels": "count", "sequence.order_queries": "count",
    "service.self_us": "us/op", "wal.append_us": "us/op",
    "wal.bytes_per_op": "B/op", "protocol.encode_us": "us/op",
    "protocol.bytes_per_op": "B/op", "server.wait_p50_ms": "ms",
    "server.wait_p99_ms": "ms", "server.shed": "count",
    "server.deadline_expired": "count", "client.retries": "count",
    "events.delivered": "count", "events.dropped": "count",
    "reads.top_us": "us/read", "reads.spectrum_us": "us/read",
    "recover.scan_us": "us/op", "recover.replay_us": "us/op",
    "trace.overhead": "ratio",
}


def percentile(values, q: float) -> float:
    """Linear-interpolated ``q``-quantile (``0 <= q <= 1``)."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def source_digest() -> str:
    """Hash of the library and benchmark sources: counts recorded by one
    version of the code are compared only with runs of that version."""
    digest = hashlib.sha256()
    for base in (ROOT / "src" / "repro", ROOT / "perfbench"):
        for path in sorted(base.rglob("*.py")):
            digest.update(path.relative_to(ROOT).as_posix().encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def repeat_problems(workload: str, seed: int, counts: dict) -> list[str]:
    """Compare ``counts`` with an earlier run of the same code and seed;
    the first run records them."""
    path = WORK / "counts.json"
    known = json.loads(path.read_text()) if path.exists() else {}
    key = f"{workload}:{seed}:{source_digest()}"
    prior = known.get(key)
    if prior is None:
        known[key] = counts
        tmp = path.with_name(path.name + ".tmp")
        tmp.write_text(json.dumps(known, indent=1, sort_keys=True))
        os.replace(tmp, path)
        return []
    if prior != counts:
        return [f"seed-fixed counts {counts} differ from an earlier run's "
                f"{prior}: nondeterminism"]
    return []


def calibration_s() -> float:
    """Time one fixed pure-Python loop that shares no code with the
    library: dict fills and scans, a heap, set inserts -- the operations
    the engine's hot paths are made of.  The working set stays small so
    the loop does not raise the run's peak memory."""
    started = time.perf_counter()
    rng = random.Random(7)
    for _ in range(15):
        table = {i: rng.randrange(1000) for i in range(4000)}
        total = 0
        for value in table.values():
            total += value
        heap: list = []
        for i in range(2000):
            heapq.heappush(heap, (table[i], i))
        while heap:
            heapq.heappop(heap)
        buckets = [set() for _ in range(128)]
        for i in range(4000):
            buckets[i % 128].add(i)
    return time.perf_counter() - started


def host_factor() -> float:
    """How much slower than the reference the host runs right now."""
    return calibration_s() / CALIBRATION_REF_S


def end_to_end(rounds: list, peak_rss_mb: float, scaled: bool = True) -> dict:
    """Every end-to-end metric, as the median over rounds of each round's
    own figure, so that a round the host slowed moves none of them.

    With ``scaled``, each round's times are divided by the host factor
    (:func:`host_factor`) measured over the phase they come from, and
    each latency by the one measured around it, so the figures read as
    on the reference host.
    """

    def median(phase: str, figure) -> float:
        return statistics.median(
            figure(r) / (r.factors[phase] if scaled else 1.0) for r in rounds
        )

    def ms(kind: str, q: float) -> float:
        """Median over rounds of one latency percentile, whose samples
        are scaled one by one (``Round.latencies``)."""
        return statistics.median(
            1e3 * percentile(r.latencies(kind, scaled), q) for r in rounds
        )

    attempted = sum(r.ops for r in rounds)
    failed = sum(r.failed for r in rounds)
    return {
        "setup_s": median("setup", lambda r: r.setup_s),
        "ops_per_s": 1.0 / median("measure", lambda r: r.measured_s / r.ops),
        "commit_p50_ms": ms("commit", 0.50),
        "commit_p90_ms": ms("commit", 0.90),
        "read_p50_ms": ms("read", 0.50),
        "read_p90_ms": ms("read", 0.90),
        "recover_s": median("recover", lambda r: r.recover_s),
        "peak_rss_mb": peak_rss_mb,
        "ok_frac": 1.0 - failed / attempted,
    }


def per_layer(workloads, traced: list, untraced: list) -> dict:
    layers = [workloads.layer_metrics(tracer, r) for tracer, r in traced]
    metrics = {
        name: statistics.median(m[name] for m in layers) for name in layers[0]
    }
    waits = [1e3 * w for tracer, _ in traced for w in workloads.server_waits(tracer)]
    metrics["server.wait_p50_ms"] = percentile(waits, 0.50)
    metrics["server.wait_p99_ms"] = percentile(waits, 0.99)
    rounds = [r for _, r in traced] + untraced
    for name in COUNT_METRICS:
        metrics[name] = rounds[0].counts[name]
    changed = metrics["engine.changed"]
    metrics["engine.visit_ratio"] = (
        metrics["engine.visited"] / changed if changed else 0.0
    )
    for name in TALLY_METRICS:
        metrics[name] = max(r.tallies.get(name, 0) for r in rounds)

    def measured(r) -> float:
        return r.measured_s / r.factors["measure"]

    metrics["trace.overhead"] = (
        statistics.median(measured(r) for _, r in traced)
        / statistics.median(measured(r) for r in untraced)
    )
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: {src / 'repro'} is missing; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import workloads
    from tracer import Tracer, dump_spans

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    WORK.mkdir(exist_ok=True)
    workload = workloads.build(args.workload, args.seed, WORK)

    # Rounds repeat until the next one would overrun --seconds; a traced
    # run alternates untraced and traced rounds so trace.overhead
    # compares like with like.
    traced, untraced = [], []
    started = time.perf_counter()
    while True:
        gc.collect()  # every round starts from the same collector state
        round_started = time.perf_counter()
        tracer = Tracer() if args.trace and len(untraced) > len(traced) else None
        if tracer is not None:
            workloads.install(tracer)
        try:
            rnd = workload.run_round(tracer, host_factor)
        finally:
            if tracer is not None:
                tracer.unpatch()
        if tracer is None:
            untraced.append(rnd)
        else:
            traced.append((tracer, rnd))
        now = time.perf_counter()
        enough = traced if args.trace else untraced
        if enough and now - started + (now - round_started) > args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    rounds = untraced + [r for _, r in traced]
    problems = list(workload.problems)
    for number, rnd in enumerate(rounds, 1):
        problems += [f"round {number}: {p}" for p in rnd.problems]
        if rnd.counts != rounds[0].counts:
            problems.append(
                f"round {number} counts {rnd.counts} differ from round 1's "
                f"{rounds[0].counts}: nondeterminism"
            )
    problems += repeat_problems(args.workload, args.seed, rounds[0].counts)

    detail = {
        "workload": args.workload,
        "why": workload.why,
        "engine": workloads.DEFAULT_ENGINE,
        **workload.describe(),
        "traced_rounds": len(traced),
        "samples": {
            "rounds": len(rounds),
            "commits_per_round": len(rounds[0].commit_s),
            "reads_per_round": len(rounds[0].read_s),
        },
        "counts": rounds[0].counts,
        "host_factors": [r.factors for r in rounds],
        "problems": problems,
    }
    if not problems:
        detail["unscaled"] = end_to_end(untraced, peak_rss_mb, scaled=False)
    if traced:
        spans = WORK / f"spans-{args.workload}-{args.seed}.jsonl"
        dump_spans((tracer for tracer, _ in traced), spans)
        detail["spans"] = str(spans.relative_to(ROOT))
    print(json.dumps(detail))

    attempted = sum(r.ops for r in rounds)
    failed = sum(r.failed for r in rounds)
    if problems:
        print("\n".join(problems), file=sys.stderr)
        metrics = {}
    elif args.trace:
        metrics = per_layer(workloads, traced, untraced)
    else:
        metrics = end_to_end(untraced, peak_rss_mb)
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": UNITS[name]}
            for name, value in metrics.items()
        },
    }))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
