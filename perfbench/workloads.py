"""The benchmark's workloads: what one round of each does.

All three run the sequential default engine
(:data:`repro.engine.registry.DEFAULT_ENGINE`).  A workload generates
its scenarios from the seed once, before anything is timed.  A *round*
then replays them from a fresh session: set-up, a measured phase of
commits timed one by one, and off-clock work that yields the remaining
metrics and the correctness checks.  The rounds of one run repeat
identical work, so their seed-fixed counts must agree exactly and their
figures can be compared round by round.

``run_round`` takes a ``calibrate`` callable that returns the host's
current slowness relative to the reference host.  A :class:`HostClock`
calls it between the phases of a round and, inside a phase, between
timed operations every :data:`CALIBRATE_EVERY_S`; each phase's factor is
the mean of its calls, and the time they take is left out of the
phase's times.
"""

from __future__ import annotations

import asyncio
import bisect
import shutil
import statistics
import tempfile
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

from repro import core_numbers
from repro.analysis import kcore_views
from repro.engine.batch import Batch
from repro.engine.registry import DEFAULT_ENGINE
from repro.scenarios import make_scenario
from repro.service import (
    CoreClient,
    CoreServer,
    CoreService,
    ServerLimits,
    TenantSession,
    WriteAheadLog,
    protocol,
    wal,
)

from tracer import Tracer

perf_counter = time.perf_counter

#: Tenants of the served workload; one client connection each.
TENANTS = ("tenant-a", "tenant-b")

#: WAL fsync policy of the served workload: an fsync every 64 appends
#: (``wal.DEFAULT_FSYNC_EVERY``) and on close.  At "always" every commit
#: waited on the disk, and on a shared host fsync latency swings between
#: runs with other tenants' I/O: it set the commit p90, which spread
#: 0.38-0.52 of its median between runs, and no change to this program
#: could move it.
FSYNC = "interval"

#: Event buffer per subscription.  One commit of the mixed scenario can
#: move hundreds of cores (closing or cutting a long cycle), past the
#: server's default of 256, and the checks require that no event drops.
SUBSCRIBER_BUFFER = 1 << 16

#: Rebuilds timed per in-process round; a single one takes milliseconds,
#: too short to time steadily on a shared host.
REBUILDS = 3

#: Seconds to wait, after the last commit, for event frames in flight.
EVENT_WAIT_S = 10.0


@dataclass
class Round:
    """What one round measured, and the problems its checks found."""

    ops: int
    setup_s: float = 0.0
    measured_s: float = 0.0
    failed: int = 0
    commit_s: list = field(default_factory=list)
    read_s: list = field(default_factory=list)
    #: When each commit and read started (``perf_counter``).
    commit_at: list = field(default_factory=list)
    read_at: list = field(default_factory=list)
    recover_s: float = 0.0
    #: Edge ops replayed by recovery (0 when a session has no log).
    recovered_ops: int = 0
    #: Counts fixed by the seed; every round of a run must repeat them.
    counts: dict = field(default_factory=dict)
    #: Per-layer counts allowed to vary between rounds (sheds, drops).
    tallies: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)
    #: Host slowness relative to the reference host around each timed
    #: phase ("setup", "measure", "reads", "recover").
    factors: dict = field(default_factory=dict)
    clock: Optional[HostClock] = None

    def latencies(self, kind: str, scaled: bool) -> list[float]:
        """The round's ``"commit"`` or ``"read"`` latencies; with
        ``scaled``, each divided by the host factor of the stretch
        between the samples on either side of it, so that a speed change
        in mid-phase does not pile one half of the samples above the
        other."""
        samples, starts = (
            (self.commit_s, self.commit_at) if kind == "commit"
            else (self.read_s, self.read_at)
        )
        if not scaled:
            return samples
        return [s / self.clock.factor_at(t) for s, t in zip(samples, starts)]


def _phase(tracer: Optional[Tracer], name: str) -> None:
    if tracer is not None:
        tracer.phase = name


#: Seconds of a phase between host-factor samples.  The host's speed
#: changes within seconds: on window-churn, with samples only on either
#: side of its ~5 s commit phase, the scaled round times spread 0.18 of
#: their median (0.12 unscaled); with one every ~0.45 s, 0.04.
CALIBRATE_EVERY_S = 0.4


class HostClock:
    """The host-factor samples of one round, grouped by phase.

    A phase's samples are the one taken as the previous phase ended,
    those taken inside it by :meth:`poll`, and the one taken as it ends.
    ``paused`` is the time the current phase spent sampling, which its
    timings leave out.
    """

    def __init__(self, calibrate: Callable[[], float]) -> None:
        self._calibrate = calibrate
        #: Every sample of the round in order, and when each ended.
        self._times: list[float] = []
        self._values: list[float] = []
        self._last = calibrate()
        self._times.append(perf_counter())
        self._values.append(self._last)
        self._samples: dict[str, list[float]] = {}
        self._phase = ""
        self._due = 0.0
        self.paused = 0.0

    def start(self, phase: str) -> None:
        self._phase = phase
        self._samples[phase] = [self._last]
        self.paused = 0.0
        self._due = perf_counter() + CALIBRATE_EVERY_S

    def poll(self) -> None:
        """Sample if one is due; call only between timed operations."""
        if perf_counter() >= self._due:
            self._sample()

    def end(self) -> None:
        self._sample()

    def _sample(self) -> None:
        started = perf_counter()
        self._last = self._calibrate()
        self._samples[self._phase].append(self._last)
        now = perf_counter()
        self._times.append(now)
        self._values.append(self._last)
        self.paused += now - started
        self._due = now + CALIBRATE_EVERY_S

    def factors(self) -> dict:
        return {phase: statistics.fmean(s) for phase, s in self._samples.items()}

    def factor_at(self, when: float) -> float:
        """The mean of the samples taken last before and first after
        ``when``."""
        i = bisect.bisect(self._times, when)
        before = self._values[max(i - 1, 0)]
        after = self._values[min(i, len(self._values) - 1)]
        return (before + after) / 2


def _engine_totals(engine) -> tuple[int, int, int]:
    stats = engine.sequence_stats
    return engine.candidate_visits, stats.relabels, stats.order_queries


def _counts(visited: int, changed: int, before, after) -> dict:
    candidate, relabels, queries = (a - b for a, b in zip(after, before))
    return {
        "engine.visited": visited,
        "engine.changed": changed,
        "engine.candidate_visits": candidate,
        "sequence.relabels": relabels,
        "sequence.order_queries": queries,
        "wal.bytes_per_op": 0.0,
    }


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the per-layer metrics read."""
    query_ids: Counter = Counter()

    def query_rid(args, kwargs) -> str:
        name = args[0].name
        query_ids[name] += 1
        return f"{name}:{query_ids[name]}"

    engine_class = type(CoreService.open(engine=DEFAULT_ENGINE).engine)
    tracer.patch(Batch, "check_applicable", "batch.check")
    tracer.patch(engine_class, "apply_batch", "engine.apply")
    tracer.patch(CoreService, "apply", "service.apply",
                 rid=lambda args, kwargs: kwargs.get("token"))
    tracer.patch(WriteAheadLog, "append", "wal.append")
    tracer.patch(protocol, "encode_frame", "protocol.encode", size=len)
    tracer.patch(TenantSession, "query", "server.query", rid=query_rid)
    tracer.patch(kcore_views, "top_cores", "reads.top")
    tracer.patch(kcore_views, "core_spectrum", "reads.spectrum")
    tracer.patch(wal, "scan", "recover.scan")


def server_waits(tracer: Tracer) -> list[float]:
    """Caller-seen latency minus the service span it caused, in seconds.

    Commits match their ``CoreService.apply`` span by token, reads their
    ``TenantSession.query`` span by per-tenant read number.  What is
    left is queueing, event-loop head-of-line blocking, the wire and
    the client.
    """
    inner = {
        s.rid: s.duration
        for name in ("service.apply", "server.query")
        for s in tracer.select(name, "measure")
        if s.rid is not None
    }
    return [
        s.duration - inner[s.rid]
        for name in ("client.commit", "client.read")
        for s in tracer.select(name, "measure")
        if s.rid in inner
    ]


def layer_metrics(tracer: Tracer, rnd: Round) -> dict:
    """One traced round's per-layer busy times, in microseconds.

    Commit-path layers are per committed edge op, reads per call,
    recovery per replayed op.
    """
    per_op = 1e6 / rnd.ops

    def per_call(name: str) -> float:
        spans = tracer.select(name)
        return 1e6 * statistics.fmean(s.duration for s in spans) if spans else 0.0

    def per_recovered(seconds: float) -> float:
        return 1e6 * seconds / rnd.recovered_ops if rnd.recovered_ops else 0.0

    encodes = tracer.select("protocol.encode", "measure")
    return {
        "batch.check_us": per_op * tracer.seconds("batch.check", "measure"),
        "engine.apply_us": per_op * tracer.seconds("engine.apply", "measure"),
        "service.self_us": per_op * tracer.self_seconds("service.apply", "measure"),
        "wal.append_us": per_op * tracer.seconds("wal.append", "measure"),
        "protocol.encode_us": per_op * sum(s.duration for s in encodes),
        "protocol.bytes_per_op": sum(s.size for s in encodes) / rnd.ops,
        "reads.top_us": per_call("reads.top"),
        "reads.spectrum_us": per_call("reads.spectrum"),
        "recover.scan_us": per_recovered(tracer.seconds("recover.scan", "recover")),
        "recover.replay_us": per_recovered(tracer.seconds("engine.apply", "recover")),
    }


# ----------------------------------------------------------------------
# In-process workloads
# ----------------------------------------------------------------------


class InProcess:
    """One ``CoreService`` with no log, no readers and no subscribers.

    Set-up opens the service over the scenario's base graph and commits
    the first ``fill`` ticks; the remaining ticks are the measured
    commits.  Afterwards, off the commit clock, ``reads`` probes of
    ``top(10)`` / ``spectrum()`` / ``core(v)`` time the read path on the
    final state, and a rebuild of the session from its final edge list
    -- the only recovery a log-less session has -- gives ``recover_s``.
    """

    def __init__(self, name: str, why: str, family: str, seed: int,
                 params: dict, *, fill: int, reads: int) -> None:
        self.name = name
        self.why = why
        self.scenario = make_scenario(family, seed=seed, **params)
        self.fill = self.scenario.ticks[:fill]
        self.ticks = self.scenario.ticks[fill:]
        self.tokens = [f"c{seq}" for seq in range(len(self.ticks))]
        self.ops = sum(len(tick) for tick in self.ticks)
        self.touched = [next(iter(tick.batch)).edge[0] for tick in self.ticks]
        self.reads = reads
        self.problems: list[str] = []

    def describe(self) -> dict:
        scenario = self.scenario
        return {
            "family": scenario.name,
            "seed": scenario.seed,
            "params": scenario.params,
            "base_edges": len(scenario.base_edges),
            "setup_ticks": len(self.fill),
            "setup_ops": sum(len(tick) for tick in self.fill),
            "ticks": len(self.ticks),
            "ops": self.ops,
        }

    def run_round(self, tracer: Optional[Tracer],
                  calibrate: Callable[[], float]) -> Round:
        rnd = Round(ops=self.ops)
        clock = HostClock(calibrate)
        _phase(tracer, "setup")
        clock.start("setup")
        started = perf_counter()
        svc = CoreService.open(self.scenario.base_graph(), engine=DEFAULT_ENGINE)
        for tick in self.fill:
            clock.poll()
            svc.apply(tick.batch)
        rnd.setup_s = perf_counter() - started - clock.paused
        clock.end()
        try:
            for step in (self._commit, self._read, self._rebuild):
                step(svc, rnd, tracer, clock)
                clock.end()
        finally:
            svc.close()
        _phase(tracer, "")
        rnd.factors = clock.factors()
        rnd.clock = clock
        return rnd

    def _commit(self, svc: CoreService, rnd: Round,
                tracer: Optional[Tracer], clock: HostClock) -> None:
        _phase(tracer, "measure")
        clock.start("measure")
        before = _engine_totals(svc.engine)
        results = []
        latencies = rnd.commit_s
        started = perf_counter()
        for tick, token in zip(self.ticks, self.tokens):
            clock.poll()
            t0 = perf_counter()
            results.append(svc.apply(tick.batch, token=token).result)
            t1 = perf_counter()
            latencies.append(t1 - t0)
            rnd.commit_at.append(t0)
            if tracer is not None:
                tracer.record("client.commit", t0, t1, token)
        rnd.measured_s = perf_counter() - started - clock.paused
        rnd.counts = _counts(
            sum(r.visited for r in results),
            sum(abs(d) for r in results for d in r.changed.values()),
            before,
            _engine_totals(svc.engine),
        )

    def _read(self, svc: CoreService, rnd: Round,
              tracer: Optional[Tracer], clock: HostClock) -> None:
        _phase(tracer, "reads")
        clock.start("reads")
        latencies = rnd.read_s
        for i in range(self.reads):
            clock.poll()
            vertex = self.touched[i % len(self.touched)]
            t0 = perf_counter()
            svc.top(10)
            t1 = perf_counter()
            svc.spectrum()
            t2 = perf_counter()
            svc.core(vertex, default=None)
            t3 = perf_counter()
            latencies += (t1 - t0, t2 - t1, t3 - t2)
            rnd.read_at += (t0, t1, t2)

    def _rebuild(self, svc: CoreService, rnd: Round,
                 tracer: Optional[Tracer], clock: HostClock) -> None:
        _phase(tracer, "recover")
        live = svc.cores()
        if live != core_numbers(svc.graph):
            rnd.problems.append("final cores differ from core_numbers(graph)")
        clock.start("recover")
        times = []
        for _ in range(REBUILDS):
            clock.poll()
            graph = svc.graph.copy()
            started = perf_counter()
            rebuilt = CoreService.open(graph, engine=DEFAULT_ENGINE)
            times.append(perf_counter() - started)
            if rebuilt.cores() != live:
                rnd.problems.append("rebuilt session's cores differ from the live ones")
            rebuilt.close()
        rnd.recover_s = statistics.median(times)


# ----------------------------------------------------------------------
# The served workload
# ----------------------------------------------------------------------


class _EventSink:
    """Everything one subscription delivered."""

    def __init__(self) -> None:
        self.events: list[tuple] = []
        self.dropped = 0
        self.resets = 0

    async def consume(self, stream) -> None:
        async for batch in stream:
            if batch.kind == "reset":
                self.resets += 1
            else:
                self.events.extend(batch.events)
                self.dropped = max(self.dropped, batch.dropped)

    async def wait_for(self, count: int) -> None:
        deadline = perf_counter() + EVENT_WAIT_S
        while len(self.events) < count and perf_counter() < deadline:
            await asyncio.sleep(0.001)


class Served:
    """Two ``CoreClient``s over loopback TCP to one durable ``CoreServer``.

    Each client commits its own ``mixed`` scenario, one commit per tick,
    and after every commit reads ``top(10)``, ``spectrum()`` and
    ``core`` of a vertex the tick touched; it holds one event
    subscription on its connection.  Set-up is server start, connect and
    the base-edge commit.  After the server closes, both tenant logs are
    recovered offline.
    """

    def __init__(self, name: str, why: str, seed: int, params: dict,
                 workdir: Path) -> None:
        self.name = name
        self.why = why
        self.workdir = workdir
        self.scenarios = [
            make_scenario("mixed", seed=2 * seed + i, **params)
            for i in range(len(TENANTS))
        ]
        self.base_ops = [
            [("insert", u, v) for u, v in sc.base_edges] for sc in self.scenarios
        ]
        self.tick_ops = [
            [[(op.kind, op.edge[0], op.edge[1]) for op in tick.batch]
             for tick in sc.ticks]
            for sc in self.scenarios
        ]
        self.ops = sum(len(ops) for tenant in self.tick_ops for ops in tenant)
        self.logged_ops = self.ops + sum(len(ops) for ops in self.base_ops)
        self.problems: list[str] = []
        self.expected = [self._replay(sc) for sc in self.scenarios]

    def _replay(self, scenario) -> tuple[dict, list]:
        """The in-process oracle: final cores and per-tick events."""
        svc = CoreService.open(scenario.base_graph(), engine=DEFAULT_ENGINE)
        events = []
        for tick in scenario.ticks:
            receipt = svc.apply(tick.batch)
            events.append([(e.vertex, e.old_core, e.new_core)
                           for e in receipt.events])
        final = svc.cores()
        if final != core_numbers(svc.graph):
            self.problems.append(
                f"in-process replay of seed {scenario.seed} differs from "
                "core_numbers(graph)"
            )
        svc.close()
        return final, events

    def describe(self) -> dict:
        return {
            "family": "mixed",
            "seeds": [sc.seed for sc in self.scenarios],
            "params": self.scenarios[0].params,
            "base_edges": [len(sc.base_edges) for sc in self.scenarios],
            "ticks": [sc.n_ticks for sc in self.scenarios],
            "ops": self.ops,
            "reads_per_commit": 3,
            "fsync": FSYNC,
        }

    def run_round(self, tracer: Optional[Tracer],
                  calibrate: Callable[[], float]) -> Round:
        logdir = Path(tempfile.mkdtemp(prefix="served-", dir=self.workdir))
        clock = HostClock(calibrate)
        try:
            rnd, finals = asyncio.run(self._serve(tracer, logdir, clock))
            self._recover(rnd, finals, logdir, tracer, clock)
            clock.end()
        finally:
            shutil.rmtree(logdir, ignore_errors=True)
        _phase(tracer, "")
        rnd.factors = clock.factors()
        # The reads run beside the commits, inside the measured phase.
        rnd.factors["reads"] = rnd.factors["measure"]
        rnd.clock = clock
        return rnd

    async def _serve(self, tracer: Optional[Tracer], logdir: Path,
                     clock: HostClock):
        rnd = Round(ops=self.ops)
        _phase(tracer, "setup")
        clock.start("setup")
        started = perf_counter()
        server = CoreServer(
            engine=DEFAULT_ENGINE, log_dir=logdir, fsync=FSYNC,
            limits=ServerLimits(subscriber_buffer=SUBSCRIBER_BUFFER),
        )
        clients: list[CoreClient] = []
        consumers: list[asyncio.Task] = []
        sinks = [_EventSink() for _ in TENANTS]
        try:
            host, port = await server.start("127.0.0.1", 0)
            for tenant, base in zip(TENANTS, self.base_ops):
                client = await CoreClient.connect(
                    host, port, session=tenant, token_prefix=tenant
                )
                clients.append(client)
                await client.commit(base, token=f"{tenant}-base")
            rnd.setup_s = perf_counter() - started
            clock.end()
            engines = [server.sessions[t].service.engine for t in TENANTS]
            before = [_engine_totals(e) for e in engines]
            for client, sink in zip(clients, sinks):
                stream = await client.subscribe(buffer=SUBSCRIBER_BUFFER)
                consumers.append(asyncio.create_task(sink.consume(stream)))
            _phase(tracer, "measure")
            clock.start("measure")
            started = perf_counter()
            summaries = await self._drive(clients, rnd, tracer, clock)
            rnd.measured_s = perf_counter() - started - clock.paused
            _phase(tracer, "")
            clock.end()
            for sink, tenant_summaries in zip(sinks, summaries):
                await sink.wait_for(sum(len(s["changed"]) for s in tenant_summaries))
            finals = [await client.cores() for client in clients]
            before = [sum(column) for column in zip(*before)]
            after = [sum(column) for column in
                     zip(*(_engine_totals(e) for e in engines))]
            # The simplified engine charges every vertex it visits to
            # candidate_visits, so that count is BatchResult.visited.
            rnd.counts = _counts(
                after[0] - before[0],
                sum(abs(d) for tenant in summaries for s in tenant
                    for _, d in s["changed"]),
                before,
                after,
            )
            rnd.tallies = {
                "server.shed": server.shed,
                "server.deadline_expired": sum(
                    server.sessions[t].deadline_expired for t in TENANTS
                ),
                "client.retries": sum(c.retries for c in clients),
                "events.delivered": sum(len(s.events) for s in sinks),
                "events.dropped": sum(s.dropped for s in sinks),
            }
        finally:
            for client in clients:
                await client.close()
            await server.close()
            await asyncio.gather(*consumers, return_exceptions=True)
        for tenant, sink, live, (final, events) in zip(
            TENANTS, sinks, finals, self.expected
        ):
            rnd.problems += _event_problems(tenant, sink, events)
            if live != final:
                rnd.problems.append(
                    f"{tenant}: served final cores differ from the in-process replay"
                )
        return rnd, finals

    async def _drive(self, clients: list, rnd: Round, tracer: Optional[Tracer],
                     clock: HostClock) -> list[list[dict]]:
        """Both tenants in lockstep: tenant a's commit of tick ``seq``
        runs beside tenant b's reads after tick ``seq - 1``, then a's
        reads beside b's commit of tick ``seq``.

        Two free-running closed loops drift in and out of phase, so
        which commit waited behind which read changed from round to
        round and seed to seed, and moved the latency percentiles by
        more than any bound; lockstep fixes what overlaps what.
        """
        summaries: list[list[dict]] = [[] for _ in clients]

        def commit(i: int, seq: int):
            return self._commit(i, clients[i], seq, rnd, tracer, summaries[i])

        def read(i: int, seq: int):
            return self._read(i, clients[i], seq, rnd, tracer)

        ticks = max(len(ops) for ops in self.tick_ops)
        for seq in range(ticks + 1):
            clock.poll()
            await asyncio.gather(commit(0, seq), read(1, seq - 1))
            await asyncio.gather(read(0, seq), commit(1, seq))
        return summaries

    async def _commit(self, index: int, client: CoreClient, seq: int,
                      rnd: Round, tracer: Optional[Tracer],
                      summaries: list) -> None:
        if not 0 <= seq < len(self.tick_ops[index]):
            return
        ops = self.tick_ops[index][seq]
        token = f"{TENANTS[index]}-{seq}"
        retries = client.retries
        t0 = perf_counter()
        summaries.append(await client.commit(ops, token=token))
        t1 = perf_counter()
        rnd.commit_s.append(t1 - t0)
        rnd.commit_at.append(t0)
        if client.retries != retries:
            rnd.failed += len(ops)
        if tracer is not None:
            tracer.record("client.commit", t0, t1, token)

    async def _read(self, index: int, client: CoreClient, seq: int,
                    rnd: Round, tracer: Optional[Tracer]) -> None:
        if not 0 <= seq < len(self.tick_ops[index]):
            return
        vertex = self.tick_ops[index][seq][0][1]
        reads = ((client.top, (10,)), (client.spectrum, ()),
                 (client.core, (vertex,)))
        for n, (query, args) in enumerate(reads):
            t0 = perf_counter()
            await query(*args)
            t1 = perf_counter()
            rnd.read_s.append(t1 - t0)
            rnd.read_at.append(t0)
            if tracer is not None:
                # The tenant's server-side query number (see install).
                rid = f"{TENANTS[index]}:{len(reads) * seq + n + 1}"
                tracer.record("client.read", t0, t1, rid)

    def _recover(self, rnd: Round, finals: list, logdir: Path,
                 tracer: Optional[Tracer], clock: HostClock) -> None:
        _phase(tracer, "recover")
        clock.start("recover")
        logs = [logdir / f"{tenant}.wal" for tenant in TENANTS]
        rnd.counts["wal.bytes_per_op"] = (
            sum(log.stat().st_size for log in logs) / self.logged_ops
        )
        for tenant, log, live in zip(TENANTS, logs, finals):
            clock.poll()
            started = perf_counter()
            svc = CoreService.recover(log)
            rnd.recover_s += perf_counter() - started
            if svc.cores() != live:
                rnd.problems.append(
                    f"{tenant}: recovered cores differ from the acked live cores"
                )
            svc.close()
        rnd.recovered_ops = self.logged_ops


def _event_problems(tenant: str, sink: _EventSink, expected: list) -> list[str]:
    """Compare one subscription's events with the in-process replay's."""
    problems = []
    if sink.dropped:
        problems.append(f"{tenant}: subscription dropped {sink.dropped} events")
    if sink.resets:
        problems.append(f"{tenant}: subscription saw {sink.resets} resets")
    by_tick: list[list] = [[] for _ in expected]
    for vertex, old, new, receipt in sink.events:
        tick = receipt - 2  # receipt 1 is the base-edge commit
        if not 0 <= tick < len(by_tick):
            problems.append(f"{tenant}: event for unexpected receipt {receipt}")
            return problems
        by_tick[tick].append((vertex, old, new))
    if by_tick != expected:
        problems.append(f"{tenant}: delivered events differ from the replay's")
    return problems


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------

WHY = {
    "window-churn": (
        "The engine insertion cascade does nearly all commit work and WAL, "
        "server and reads do none, so a kernel change shows here and a "
        "serving change must not."
    ),
    "relabel-storm": (
        "Each insert promotes only its new vertex, so the cascade idles and "
        "order-list relabels dominate: isolates structures.sequence from "
        "the kernel."
    ),
    "served-durable": (
        "The only workload through server, protocol, WAL, event fan-out, "
        "reads beside writes and offline recovery."
    ),
}


def build(name: str, seed: int, workdir: Path):
    """The workload called ``name``, its inputs generated from ``seed``."""
    if name == "window-churn":
        # ~1.2k vertices and ~4.8k live edges (about 4 per vertex) once
        # the 40-tick window has filled; 200 measured ticks of 120
        # expiries plus 120 arrivals.
        return InProcess(
            name, WHY[name], "sliding-window", seed,
            dict(scale=10, ticks=240, arrivals=120, window=40),
            fill=40, reads=200,
        )
    if name == "relabel-storm":
        # A 30k-vertex path with 8 anchors growing 48-vertex chains.
        return InProcess(
            name, WHY[name], "relabel-storm", seed,
            dict(scale=125, ticks=400, chain=48, anchors=8),
            fill=0, reads=40,
        )
    if name == "served-durable":
        # ~1.5k vertices and ~160 ticks of 10 ops per tenant: rounds of
        # a few seconds, so that a run takes its medians over a dozen of
        # them.  At 4.5k vertices a round took ~9 s, a run held four,
        # and one round the shared host slowed moved every median.
        return Served(name, WHY[name], seed, dict(scale=10, tick_ops=10), workdir)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = tuple(WHY)
