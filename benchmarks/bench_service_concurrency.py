"""Serving-front concurrency: commits/sec and event fan-out over TCP.

Four benches drive a real :class:`~repro.service.server.CoreServer` over
loopback TCP with the real protocol (framed JSONL, tokens, deadlines):

* ``commit_throughput`` — sequential (one client, await each commit
  before the next) vs multi-tenant (N clients pipelining concurrently
  onto N tenant sessions), both on the default sequential engine.  The
  gate: at meaningful op counts the multi-tenant fan-out must not be
  slower than the sequential baseline — asyncio pipelining across
  per-tenant single-writer queues has to hide the per-request
  round-trip time, or the session multiplexing is pure overhead.
* ``serving_overhead`` — the same commit stream through a bare
  ``CoreService`` façade vs through server+client, gating the per-commit
  cost of the network front (framing, JSON, admission, deadline
  machinery) at ``SERVE_OVERHEAD_BOUND``×.
* ``event_fanout`` — S subscribers per session during a commit storm;
  every subscriber must see every event (bounded buffers sized to fit),
  and the delivered-events/sec rate is recorded.
* ``degraded_reads`` — reads answered healthy (primary) vs degraded
  (last-good state after a poisoned commit), recording both rates; the
  degraded path must answer every query.

The two gates read the median per-round ratio of ``paired_medians``
rounds that alternate which side runs first.

Artifact: ``BENCH_service_concurrency.json`` (set
``REPRO_BENCH_ARTIFACT_DIR``).
"""

import asyncio
import time

from _bench_common import BENCH_UPDATES, artifact, once, paired_medians

from repro.engine.batch import Batch
from repro.service import CoreClient, CoreServer, CoreService, ServerLimits
from repro.testing.faults import FaultPlan

#: Concurrent clients (= tenant sessions) in the multi-tenant fan-out.
N_CLIENTS = 4
#: Commits per client.
COMMITS = max(4, BENCH_UPDATES // 2)
#: Subscribers per session in the fan-out bench.
SUBSCRIBERS = 4
#: Below this many commits the relative gates are recorded but not
#: asserted (CI smoke scales are too small for stable wall-clock).
WALL_CLOCK_MIN_COMMITS = 100
#: The serving front may cost at most this many times a raw façade
#: commit (JSON + framing + TCP + admission + deadline machinery).
#: Measured ~5x on a quiet host; the bound leaves room for CI noise.
SERVE_OVERHEAD_BOUND = 25.0
#: Rounds of each gate: a round starts a server per side.
ROUNDS = 5

RECORDS, _artifact = artifact("service_concurrency", lambda: {
    "clients": N_CLIENTS,
    "commits_per_client": COMMITS,
    "subscribers": SUBSCRIBERS,
    "serve_overhead_bound": SERVE_OVERHEAD_BOUND,
})


def pocket_ops(client_index, n):
    """``n`` single-insert commits inside a disjoint vertex pocket."""
    base = 10_000 * (client_index + 1)
    ops = []
    for i in range(n):
        u = base + i
        v = base + i + 1 if i % 3 else base + (i // 3)
        if u == v:
            v = u + 1
        ops.append([["insert", u, v]])
    return ops


async def _commit_all(client, ops):
    for op in ops:
        await client.commit(op, deadline=60)


def _run_sequential(total_commits):
    """One client, one session, one commit in flight at a time."""
    async def scenario():
        async with CoreServer() as server:
            host, port = await server.start()
            client = await CoreClient.connect(host, port, session="seq")
            ops = pocket_ops(0, total_commits)
            started = time.perf_counter()
            await _commit_all(client, ops)
            elapsed = time.perf_counter() - started
            await client.close()
            return elapsed
    return asyncio.run(scenario())


def _run_multi_tenant(n_clients, commits_each):
    """N clients pipelining concurrently onto N tenant sessions."""
    async def scenario():
        async with CoreServer() as server:
            host, port = await server.start()
            clients = [
                await CoreClient.connect(host, port, session=f"s{i}")
                for i in range(n_clients)
            ]
            workloads = [
                pocket_ops(i, commits_each) for i in range(n_clients)
            ]
            started = time.perf_counter()
            await asyncio.gather(*[
                _commit_all(c, ops) for c, ops in zip(clients, workloads)
            ])
            elapsed = time.perf_counter() - started
            for c in clients:
                await c.close()
            return elapsed
    return asyncio.run(scenario())


def bench_commit_throughput_sequential_vs_multi_tenant(benchmark):
    total = N_CLIENTS * COMMITS
    paired = once(
        benchmark, paired_medians,
        lambda: (None, _run_sequential(total)),
        lambda: (None, _run_multi_tenant(N_CLIENTS, COMMITS)),
        rounds=ROUNDS,
    )
    seq_s, tenants_s = paired.baseline_s, paired.candidate_s
    entry = {
        "bench": "commit_throughput",
        "total_commits": total,
        "sequential_seconds": round(seq_s, 6),
        "multi_tenant_seconds": round(tenants_s, 6),
        "sequential_commits_per_sec": round(total / seq_s, 1),
        "multi_tenant_commits_per_sec": round(total / tenants_s, 1),
        "speedup": round(1 / paired.ratio, 3),
        **paired.info("multi_tenant/sequential"),
    }
    RECORDS.append(entry)
    benchmark.extra_info.update(entry)
    print(f"\ncommit_throughput: multi-tenant/sequential {paired}")
    if total >= WALL_CLOCK_MIN_COMMITS:
        assert paired.ratio <= 1, (
            f"multi-tenant fan-out slower than sequential over {total} "
            f"commits: multi-tenant/sequential {paired}"
        )


def bench_serving_overhead_vs_facade(benchmark):
    """Per-commit cost of the network front vs raw façade commits."""
    ops = pocket_ops(0, COMMITS)

    def facade_side():
        svc = CoreService.open()
        started = time.perf_counter()
        for op in ops:
            svc.apply(Batch((kind, (u, v)) for kind, u, v in op))
        elapsed = time.perf_counter() - started
        svc.close()
        return None, elapsed

    def served_side():
        async def scenario():
            async with CoreServer() as server:
                host, port = await server.start()
                client = await CoreClient.connect(host, port, session="t")
                started = time.perf_counter()
                await _commit_all(client, ops)
                elapsed = time.perf_counter() - started
                await client.close()
                return None, elapsed
        return asyncio.run(scenario())

    paired = once(benchmark, paired_medians, facade_side, served_side,
                  rounds=ROUNDS)
    facade_s, served_s = paired.baseline_s, paired.candidate_s
    entry = {
        "bench": "serving_overhead",
        "commits": COMMITS,
        "facade_seconds": round(facade_s, 6),
        "served_seconds": round(served_s, 6),
        "facade_commits_per_sec": round(COMMITS / facade_s, 1),
        "served_commits_per_sec": round(COMMITS / served_s, 1),
        **paired.info("overhead_ratio"),
        "bound": SERVE_OVERHEAD_BOUND,
    }
    RECORDS.append(entry)
    benchmark.extra_info.update(entry)
    print(f"\nserving_overhead: served/façade {paired}")
    if COMMITS >= WALL_CLOCK_MIN_COMMITS:
        assert paired.ratio <= SERVE_OVERHEAD_BOUND, (
            f"serving front costs {paired} a façade commit, bound is "
            f"{SERVE_OVERHEAD_BOUND}x"
        )


def bench_event_fanout(benchmark):
    """S subscribers during a commit storm: delivery is complete."""
    async def scenario():
        limits = ServerLimits(subscriber_buffer=100_000)
        async with CoreServer(limits=limits) as server:
            host, port = await server.start()
            client = await CoreClient.connect(host, port, session="t")
            streams = [
                await client.subscribe(buffer=100_000)
                for _ in range(SUBSCRIBERS)
            ]
            ops = pocket_ops(0, COMMITS)
            started = time.perf_counter()
            await _commit_all(client, ops)
            commit_s = time.perf_counter() - started

            async def drain(stream, want):
                got = 0
                while got < want:
                    batch = await asyncio.wait_for(stream.__anext__(), 30)
                    if batch.kind == "events":
                        got += len(batch.events)
                        assert batch.dropped == 0
                return got

            # Each commit changes >= 1 vertex core; count one stream's
            # events, then require every stream to deliver that many.
            first_total = await drain_all_events(streams[0])
            totals = [first_total]
            for stream in streams[1:]:
                totals.append(await drain(stream, first_total))
            elapsed = time.perf_counter() - started
            for stream in streams:
                await stream.close()
            await client.close()
            return commit_s, elapsed, totals

    async def drain_all_events(stream):
        """Drain until the stream goes quiet; returns events seen."""
        got = 0
        while True:
            try:
                batch = await asyncio.wait_for(stream.__anext__(), 0.5)
            except asyncio.TimeoutError:
                return got
            if batch.kind == "events":
                got += len(batch.events)

    def run():
        return asyncio.run(scenario())

    commit_s, total_s, totals = once(benchmark, run)
    assert len(set(totals)) == 1, (
        f"subscribers disagree on delivered events: {totals}"
    )
    delivered = sum(totals)
    entry = {
        "bench": "event_fanout",
        "commits": COMMITS,
        "subscribers": SUBSCRIBERS,
        "events_per_subscriber": totals[0],
        "events_delivered": delivered,
        "commit_seconds": round(commit_s, 6),
        "total_seconds": round(total_s, 6),
        "events_per_sec": round(delivered / total_s, 1) if total_s else None,
    }
    RECORDS.append(entry)
    benchmark.extra_info.update(entry)
    assert totals[0] >= COMMITS  # every commit moved at least one core


def bench_degraded_reads_vs_healthy(benchmark):
    """Query rate healthy (primary) vs degraded (last-good state)."""
    n_queries = max(50, COMMITS)

    async def scenario():
        async with CoreServer() as server:  # memory-only
            host, port = await server.start()
            client = await CoreClient.connect(host, port, session="t")
            for op in pocket_ops(0, COMMITS):
                await client.commit(op, deadline=60)

            started = time.perf_counter()
            for _ in range(n_queries):
                reply = await client.query("top", n=5)
                assert reply["source"] == "primary"
            healthy_s = time.perf_counter() - started

            # Poison the engine: the unlogged session degrades for good.
            with FaultPlan().crash("engine.mid_batch"):
                try:
                    await client.commit(
                        [["insert", 1, 2]], retry=False, deadline=60
                    )
                except Exception:
                    pass
            while (await client.status())["state"] != "degraded":
                await asyncio.sleep(0.01)

            started = time.perf_counter()
            for _ in range(n_queries):
                reply = await client.query("top", n=5)
                assert reply["source"] == "last_good"
            degraded_s = time.perf_counter() - started
            await client.close()
            return healthy_s, degraded_s

    def run():
        return asyncio.run(scenario())

    healthy_s, degraded_s = once(benchmark, run)
    entry = {
        "bench": "degraded_reads",
        "queries": n_queries,
        "healthy_seconds": round(healthy_s, 6),
        "degraded_seconds": round(degraded_s, 6),
        "healthy_queries_per_sec": round(n_queries / healthy_s, 1),
        "degraded_queries_per_sec": round(n_queries / degraded_s, 1),
    }
    RECORDS.append(entry)
    benchmark.extra_info.update(entry)
