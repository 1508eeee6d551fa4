"""The fault-tolerant async serving front: supervised multi-tenant sessions.

:class:`CoreServer` multiplexes many concurrent tenant sessions onto
WAL-backed :class:`~repro.service.CoreService` engines over framed-JSONL
TCP streams (:mod:`repro.service.protocol`), wrapped in an explicit
robustness layer:

**Session supervision.**  Each tenant session owns one ``CoreService``
behind a *single-writer* task — commits are strictly serialized per
session, so the engine below never sees concurrent mutation.  When a
commit poisons the engine (an engine-internal failure or an injected
crash — the moral equivalent of the session process dying), the
supervisor flips the session to *degraded* mode, fails queued commits
with retryable responses, and restarts the session in the background via
:meth:`CoreService.recover`; the resulting
:class:`~repro.service.session.RecoveryReport` is reported to the tenant
through ``status`` and the session returns to *healthy*.  The lifecycle
is ``healthy → degraded → recovering → healthy``; a session without a
commit log has nothing to recover from and stays degraded until closed.

**Admission control and backpressure.**  Per-session commit queues are
bounded (``ServerLimits.max_pending``) and there is a global in-flight
cap (``max_inflight``); a commit that cannot be admitted is *shed* with
a ``RetryAfter`` response carrying a backoff hint scaled by queue depth
— the client library honours it transparently.

**Deadlines and idempotent retry.**  Every commit carries a deadline
(client-supplied ``deadline_ms`` or ``default_deadline``).  A deadline
that fires while the commit is queued or mid-apply abandons only the
*waiter* — never the commit, which the single writer finishes either
way (cancellation-safe).  Each commit's idempotency ``token`` is
recorded in the session's write-ahead record
(:meth:`CoreService.apply`), so a retry lands exactly once: served from
the in-memory token cache, or — after a crash — from the cache rebuilt
out of the recovered log.

**Degraded-mode reads.**  While degraded or recovering, the session
keeps answering ``core`` / ``top`` / ``spectrum`` / ``cores`` /
``kcore`` from the crashed service's read index, which folds in a
commit only once the engine acks it and so holds exactly the last-good
state — the poisoned engine is never read.  Those replies are tagged
``"source": "last_good"`` so clients know what they got.

**Read replicas.**  Queries with ``replica=true`` are answered by a
:class:`~repro.service.replica.LogReplica` fed by incremental WAL
tailing — the write path is never touched.  The replica's refresh and
the read run in worker threads, each under the replica's lock, so
concurrent replica reads never apply a record twice or read a
half-applied one.

Session and replica reads differ only in the read index they read:
the session's service and each replica keep a
:class:`~repro.analysis.kcore_views.CoreIndex` that owns its core map
and folds in each commit, so ``top``, ``spectrum`` and ``degeneracy``
are lookups everywhere.  :func:`answer` is the one dispatcher for all
of them, and a malformed read (unknown op, missing or non-integer
parameter) is a ``BadRequest`` whichever source it targets.  So is a
malformed request envelope: ``params`` that is not an object, an
invalid session name, or a commit ``token`` that is not a string.

**Event fan-out.**  ``subscribe`` streams every commit's
:class:`~repro.service.events.CoreEvent` records to the client as framed
event batches through a *bounded* per-subscriber buffer
(``subscriber_buffer``, oldest event dropped first): a slow consumer loses
old events (counted in the frames' ``dropped`` field), never stalls the
commit path or the other subscribers.  After a failover the stream gets
a ``reset`` frame — events from the crash window are gone; resync by
querying.

Network fault points (registered via
:func:`~repro.testing.faults.register_fault_point`): ``server.drop_conn``,
``server.partial_frame`` — the connection dies before / halfway through
a response — and ``server.slow_write`` — the write is delayed.  Unlike
the durable-path crash points these are *behavioural*: the server
catches the injected fault and converts it into the named network
misbehaviour, because a dying connection is a normal event the server
must survive, not a process crash.
"""

from __future__ import annotations

import asyncio
import itertools
import re
from collections import OrderedDict
from collections.abc import Hashable
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from repro.analysis import kcore_views
from repro.engine.batch import Batch, vertex_sort_key
from repro.engine.registry import DEFAULT_ENGINE
from repro.errors import BatchError, ReproError, ServiceError
from repro.service import protocol
from repro.service.replica import LogReplica
from repro.service.session import CoreService
from repro.service.wal import batch_from_ops
from repro.testing.faults import (
    InjectedFault,
    inject,
    register_fault_point,
)

register_fault_point(
    "server.drop_conn",
    "CoreServer: the connection dies before a response or event frame "
    "is written (behavioural: caught at the connection boundary, the "
    "client sees a reset and must retry with its token)",
)
register_fault_point(
    "server.slow_write",
    "CoreServer: a response/event write is delayed by "
    "ServerLimits.slow_write_delay (behavioural: converted to latency)",
)
register_fault_point(
    "server.partial_frame",
    "CoreServer: half a response frame reaches the client, then the "
    "connection dies (behavioural: the peer sees a torn frame and "
    "discards it)",
)

#: Session lifecycle states (see the module docstring's state machine).
HEALTHY, DEGRADED, RECOVERING, CLOSED = (
    "healthy", "degraded", "recovering", "closed",
)

_SESSION_NAME = re.compile(r"^[A-Za-z0-9._-]{1,64}$")

_CLOSE = object()


@dataclass
class ServerLimits:
    """Tunable robustness knobs of a :class:`CoreServer`.

    Attributes
    ----------
    max_pending:
        Per-session commit queue bound; a full queue sheds with
        ``RetryAfter``.
    max_inflight:
        Global cap on admitted-but-unanswered commits across sessions.
    default_deadline:
        Seconds a commit may wait end-to-end when the client sends no
        ``deadline_ms``.
    subscriber_buffer:
        Bounded per-subscriber event buffer; a full one drops its
        oldest event.
    retry_after:
        Base backoff hint (seconds) carried by ``RetryAfter`` responses;
        scaled up with queue depth and for degraded sessions.
    slow_write_delay:
        Latency injected by the ``server.slow_write`` fault point.
    token_cache:
        Idempotency tokens remembered per session (LRU beyond that).
    recovery_delay:
        Seconds to linger in degraded mode before re-recovering — 0 for
        fastest failback; raise it to keep a recovery window open (ops
        backoff, benchmarks of degraded-mode serving).
    """

    max_pending: int = 64
    max_inflight: int = 256
    default_deadline: float = 30.0
    subscriber_buffer: int = 256
    retry_after: float = 0.05
    slow_write_delay: float = 0.05
    token_cache: int = 4096
    recovery_delay: float = 0.0


class _SessionCrash(Exception):
    """Internal: the single-writer died under this commit (retryable)."""


def _reap_commit(session: "TenantSession", token: Optional[str]):
    """Done-callback for a commit future: drop the pending-token entry
    and consume the exception of an abandoned (deadline-expired) waiter
    so asyncio never logs it as unretrieved."""

    def _reap(future) -> None:
        if token is not None:
            session.pending_tokens.pop(token, None)
        if not future.cancelled():
            future.exception()

    return _reap


class _PendingCommit:
    __slots__ = ("batch", "token", "future")

    def __init__(self, batch: Batch, token: Optional[str], future) -> None:
        self.batch = batch
        self.token = token
        self.future = future


class _RemoteSubscriber:
    """One client subscription: bounded buffer + a pump task to the wire."""

    def __init__(self, session, conn, sub_id: int, min_k: Optional[int],
                 buffer: int) -> None:
        self.session = session
        self.conn = conn
        self.sub_id = sub_id
        self.min_k = min_k
        self.buffer = buffer
        self.sub = session.service.subscribe(min_k=min_k, max_pending=buffer)
        self.wake = asyncio.Event()
        self.reset_receipt: Optional[int] = None
        self.closed = False
        self.task = asyncio.create_task(self._pump())

    def resubscribe(self, service, reset_receipt: int) -> None:
        """Re-attach to the session's replacement service after failover.

        Undelivered events from the old service are discarded — the
        crash window already lost events that were never committed to a
        subscription — and the client gets a ``reset`` frame telling it
        to resync.
        """
        old_dropped = self.sub.dropped_events
        self.sub.close()
        self.sub = service.subscribe(min_k=self.min_k, max_pending=self.buffer)
        self.sub.dropped_events = old_dropped
        self.reset_receipt = reset_receipt
        self.wake.set()

    async def _pump(self) -> None:
        try:
            while not self.closed:
                await self.wake.wait()
                self.wake.clear()
                if self.closed:
                    break
                if self.reset_receipt is not None:
                    receipt, self.reset_receipt = self.reset_receipt, None
                    await self.conn.send(
                        protocol.reset_frame(self.sub_id, receipt)
                    )
                events = self.sub.take()
                if events:
                    await self.conn.send(
                        protocol.events_frame(
                            self.sub_id, events, self.sub.dropped_events
                        )
                    )
        except (InjectedFault, ConnectionError, OSError):
            # The connection is gone (or a network fault point killed
            # it): abort it so the handler notices and cleans up.
            self.conn.abort()
        except asyncio.CancelledError:
            raise

    def close(self) -> None:
        if self.closed:
            return
        self.closed = True
        self.sub.close()
        self.wake.set()
        self.task.cancel()


class TenantSession:
    """One tenant's supervised session: single writer, bounded queue.

    Created by :class:`CoreServer` — not directly.  All commit traffic
    funnels through :attr:`queue` into :meth:`_serve_writes`; the
    supervisor task restarts the write path through recovery whenever it
    crashes.
    """

    def __init__(self, name: str, service: CoreService, server: "CoreServer",
                 limits: ServerLimits) -> None:
        self.name = name
        self.service = service
        self.server = server
        self.limits = limits
        self.state = HEALTHY
        self.queue: asyncio.Queue = asyncio.Queue(maxsize=limits.max_pending)
        #: token -> commit summary (LRU-bounded); rebuilt from the log
        #: after recovery so retries stay exactly-once across crashes.
        self.tokens: OrderedDict[str, dict] = OrderedDict()
        #: token -> future of a commit still in the queue/writer: a
        #: retry that arrives before the original resolves attaches to
        #: this future instead of enqueuing a second apply.
        self.pending_tokens: dict[str, asyncio.Future] = {}
        self.commits = 0
        self.shed = 0
        self.deadline_expired = 0
        self.crashes = 0
        self.recoveries = 0
        self.degraded_reads = 0
        self.last_recovery = None
        self.recovery_error: Optional[str] = None
        self.replica: Optional[LogReplica] = None
        self.subscribers: dict[int, _RemoteSubscriber] = {}
        self._gate = asyncio.Event()
        self._gate.set()
        self._closing = False
        self._receipt_floor = 0
        self._task = asyncio.create_task(self._supervise())
        # A restarted session (the server was handed a recovered
        # service): the log knew every token that landed before it.
        if service.recovery is not None:
            self._adopt_recovered(service)

    # -- lifecycle ------------------------------------------------------

    @property
    def recoverable(self) -> bool:
        """Whether a crash can be healed (the session keeps a log)."""
        return self.service.log_path is not None

    def pause(self) -> None:
        """Hold the writer before its next commit (quiesce/maintenance)."""
        self._gate.clear()

    def resume(self) -> None:
        """Release a :meth:`pause`."""
        self._gate.set()

    async def _supervise(self) -> None:
        while not self._closing:
            crashed = await self._serve_writes()
            if self._closing or not crashed:
                break
            self.crashes += 1
            self.server.crashes += 1
            self.state = DEGRADED
            self._fail_queued()
            if not self.recoverable:
                return  # degraded for good: admission rejects writes
            if self.limits.recovery_delay:
                await asyncio.sleep(self.limits.recovery_delay)
            if self._closing:
                break
            await self._recover()
            if self.state != HEALTHY:
                return  # recovery itself failed; stay degraded

    async def _serve_writes(self) -> bool:
        """The single writer; returns True on crash, False on close."""
        while True:
            item = await self.queue.get()
            if item is _CLOSE:
                return False
            # Gate check after dequeue: a pause() taken while the writer
            # was parked in queue.get() must still hold this commit.
            try:
                await self._gate.wait()
            except asyncio.CancelledError:
                self.server.inflight -= 1
                if not item.future.done():
                    item.future.set_exception(_SessionCrash("session closed"))
                raise
            try:
                receipt = self.service.apply(item.batch, token=item.token)
            except BatchError as exc:
                self.server.inflight -= 1
                if not item.future.done():
                    item.future.set_exception(exc)
            except Exception as exc:
                # Engine poisoned (or an injected crash): this is the
                # supervisor catching its dying "process".  The commit
                # may be in the log — the client's token retry finds out.
                self.server.inflight -= 1
                if not item.future.done():
                    item.future.set_exception(_SessionCrash(repr(exc)))
                return True
            else:
                self.server.inflight -= 1
                self.commits += 1
                summary = {
                    "receipt_id": receipt.receipt_id,
                    "ops": receipt.ops,
                    "changed": sorted(
                        ([v, d] for v, d in receipt.deltas.items()),
                        key=lambda pair: vertex_sort_key(pair[0]),
                    ),
                    "replayed": False,
                }
                self._remember(item.token, summary)
                if not item.future.done():
                    item.future.set_result(summary)
                for subscriber in list(self.subscribers.values()):
                    subscriber.wake.set()

    def _fail_queued(self) -> None:
        while True:
            try:
                item = self.queue.get_nowait()
            except asyncio.QueueEmpty:
                return
            if item is _CLOSE:
                continue
            self.server.inflight -= 1
            if not item.future.done():
                item.future.set_exception(_SessionCrash("session crashed"))

    async def _recover(self) -> None:
        self.state = RECOVERING
        log = self.service.log_path
        try:
            self.service.close()
        except Exception:  # a poisoned session must not block recovery
            pass
        try:
            service = await asyncio.to_thread(CoreService.recover, log)
        except (ReproError, OSError) as exc:
            self.recovery_error = str(exc)
            self.state = DEGRADED
            return
        self.service = service
        self._adopt_recovered(service)
        self.recovery_error = None
        self.recoveries += 1
        self.server.recoveries += 1
        for subscriber in list(self.subscribers.values()):
            subscriber.resubscribe(service, self._receipt_floor)
        self.state = HEALTHY

    def _adopt_recovered(self, service: CoreService) -> None:
        """Take a recovered service's token table, receipt floor and
        report from its recovery scan."""
        for receipt_id, token in sorted(service.logged_tokens.items()):
            self._remember(
                token,
                {"receipt_id": receipt_id, "replayed": True},
            )
        self._receipt_floor = service.last_receipt_id
        self.last_recovery = service.recovery

    def _remember(self, token: Optional[str], summary: dict) -> None:
        if token is None:
            return
        self.tokens[token] = summary
        self.tokens.move_to_end(token)
        while len(self.tokens) > self.limits.token_cache:
            self.tokens.popitem(last=False)

    def _last_receipt_id(self) -> int:
        receipt = self.service.last_receipt
        live = receipt.receipt_id if receipt is not None else 0
        return max(live, self._receipt_floor)

    async def close(self) -> None:
        if self._closing:
            return
        self._closing = True
        self.state = CLOSED
        self.resume()
        try:
            self.queue.put_nowait(_CLOSE)
        except asyncio.QueueFull:
            pass
        self._task.cancel()
        try:
            await self._task
        except asyncio.CancelledError:
            pass
        self._fail_queued()
        for subscriber in list(self.subscribers.values()):
            subscriber.close()
        self.subscribers.clear()
        try:
            self.service.close()
        except Exception:
            pass

    # -- reads ----------------------------------------------------------

    def query(self, op: str, params: dict) -> dict:
        """Answer one read from the service's index.

        While degraded or recovering, :attr:`service` is still the
        crashed one, whose index holds the last acked state.
        """
        if self.state == HEALTHY:
            source = "primary"
        else:
            self.degraded_reads += 1
            source = "last_good"
        return {
            "result": answer(self.service.index, op, params),
            "source": source,
            "receipt": self._last_receipt_id(),
            "state": self.state,
        }

    def status(self) -> dict:
        report = self.last_recovery
        return {
            "session": self.name,
            "state": self.state,
            "engine": self.service.engine_name,
            "logged": self.recoverable,
            "receipt": self._last_receipt_id(),
            "queue_depth": self.queue.qsize(),
            "commits": self.commits,
            "shed": self.shed,
            "deadline_expired": self.deadline_expired,
            "crashes": self.crashes,
            "recoveries": self.recoveries,
            "degraded_reads": self.degraded_reads,
            "tokens_cached": len(self.tokens),
            "subscribers": len(self.subscribers),
            "recovery_error": self.recovery_error,
            "last_recovery": None if report is None else report._asdict(),
        }


def _pairs(mapping: dict) -> list:
    """JSON-safe rendering of a vertex-keyed map (JSON keys are strings)."""
    return sorted(
        ([k, v] for k, v in mapping.items()),
        key=lambda pair: vertex_sort_key(pair[0]),
    )


_REQUIRED = object()


def _check_session_name(name) -> None:
    """Raise ``ServiceError`` unless ``name`` is a valid session name."""
    if not isinstance(name, str) or not _SESSION_NAME.match(name):
        raise ServiceError(
            f"invalid session name {name!r}; use 1-64 characters from "
            "[A-Za-z0-9._-]"
        )


def _int_param(op: str, params: dict, name: str, default=_REQUIRED,
               minimum=None):
    """Integer parameter ``name`` of request ``op``, at least ``minimum``
    when one is given; ``default`` when absent (``ServiceError`` if the
    parameter is malformed, or absent without a default)."""
    value = params.get(name)
    if value is None and default is not _REQUIRED:
        return default
    if (
        isinstance(value, bool)
        or not isinstance(value, int)
        or (minimum is not None and value < minimum)
    ):
        bound = "" if minimum is None else f" >= {minimum}"
        raise ServiceError(
            f"{op!r} needs an integer {name!r}{bound}, got {value!r}"
        )
    return value


def answer(index: kcore_views.CoreIndex, op: str, params: dict):
    """The ``result`` of read ``op`` over the read index ``index``.

    The one read dispatcher: session reads, healthy or degraded, come
    here with the service's index and replica reads with the
    replica's.  ``top``, ``spectrum`` and ``degeneracy`` go through
    :mod:`~repro.analysis.kcore_views`'s dispatching functions;
    ``core``, ``cores`` and ``kcore`` read the index's core map.  A
    missing or non-integer parameter, or an unknown ``op``, raises
    :class:`~repro.errors.ServiceError`.
    """
    cores = index.core
    if op == "core":
        if "vertex" not in params:
            raise ServiceError("query op 'core' needs a 'vertex'")
        vertex = params["vertex"]
        if not isinstance(vertex, Hashable):
            raise ServiceError(
                f"query op 'core' needs a scalar 'vertex', got {vertex!r}"
            )
        return cores.get(vertex)
    if op == "cores":
        return _pairs(cores)
    if op == "top":
        n = _int_param(op, params, "n", 10)
        return [list(pair) for pair in kcore_views.top_cores(index, n)]
    if op == "spectrum":
        return _pairs(kcore_views.core_spectrum(index))
    if op == "degeneracy":
        return kcore_views.degeneracy(index)
    if op == "kcore":
        k = _int_param(op, params, "k")
        return sorted(kcore_views.KCoreView(cores, k), key=vertex_sort_key)
    raise ServiceError(f"unknown query op {op!r}")


class _Connection:
    """Per-connection write serialization + network fault points."""

    def __init__(self, writer: asyncio.StreamWriter,
                 limits: ServerLimits) -> None:
        self.writer = writer
        self.limits = limits
        self.lock = asyncio.Lock()
        self.subs: dict[int, _RemoteSubscriber] = {}

    async def send(self, record: dict) -> None:
        async with self.lock:
            inject("server.drop_conn")
            data = protocol.encode_frame(record)
            try:
                inject("server.partial_frame")
            except InjectedFault:
                self.writer.write(data[: len(data) // 2])
                await self.writer.drain()
                raise
            try:
                inject("server.slow_write")
            except InjectedFault:
                await asyncio.sleep(self.limits.slow_write_delay)
            self.writer.write(data)
            await self.writer.drain()

    def abort(self) -> None:
        transport = self.writer.transport
        if transport is not None:
            transport.abort()


class CoreServer:
    """The serving front: accept connections, supervise tenant sessions.

    Parameters
    ----------
    engine:
        The registry name new sessions build their engine from.
    log_dir:
        Directory for per-session write-ahead logs (``<name>.wal``).
        With a log, sessions are durable, recoverable after a crash and
        replica-servable; an existing log is *recovered*, not truncated,
        so a restarted server resumes every tenant where it left off.
        Without one, sessions are memory-only and a crash leaves them
        degraded (read-only) until closed.
    fsync:
        WAL fsync policy for new session logs.
    limits:
        :class:`ServerLimits`; defaults are production-ish.

    Use as an async context manager, or :meth:`start` / :meth:`close`::

        async with CoreServer(log_dir=tmp) as server:
            host, port = await server.start("127.0.0.1", 0)
            ...
    """

    def __init__(
        self,
        *,
        engine: str = DEFAULT_ENGINE,
        log_dir=None,
        fsync: str = "always",
        limits: Optional[ServerLimits] = None,
    ) -> None:
        self.engine = engine
        self.log_dir = Path(log_dir) if log_dir is not None else None
        self.fsync = fsync
        self.limits = limits or ServerLimits()
        self.sessions: dict[str, TenantSession] = {}
        self._session_locks: dict[str, asyncio.Lock] = {}
        self._server: Optional[asyncio.AbstractServer] = None
        self._conns: set[asyncio.Task] = set()
        self._sub_ids = itertools.count(1)
        self.inflight = 0
        self.admitted = 0
        self.shed = 0
        self.crashes = 0
        self.recoveries = 0
        self._closing = False

    # -- lifecycle ------------------------------------------------------

    async def start(self, host: str = "127.0.0.1", port: int = 0):
        """Bind and serve; returns the bound ``(host, port)``."""
        if self._server is not None:
            raise ServiceError("server is already started")
        self._server = await asyncio.start_server(
            self._handle, host, port, limit=protocol.STREAM_LIMIT
        )
        bound = self._server.sockets[0].getsockname()[:2]
        return bound

    @property
    def address(self):
        if self._server is None or not self._server.sockets:
            return None
        return self._server.sockets[0].getsockname()[:2]

    async def close(self) -> None:
        """Stop accepting, drop connections, close every session."""
        if self._closing:
            return
        self._closing = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        for task in list(self._conns):
            task.cancel()
        if self._conns:
            await asyncio.gather(*self._conns, return_exceptions=True)
        for session in list(self.sessions.values()):
            await session.close()
        self.sessions.clear()

    async def __aenter__(self) -> "CoreServer":
        return self

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.close()

    def stats(self) -> dict:
        return {
            "sessions": len(self.sessions),
            "inflight": self.inflight,
            "admitted": self.admitted,
            "shed": self.shed,
            "crashes": self.crashes,
            "recoveries": self.recoveries,
        }

    # -- session management --------------------------------------------

    async def get_session(self, name: str) -> TenantSession:
        """Fetch-or-create the tenant session called ``name``."""
        session = self.sessions.get(name)
        if session is not None:
            return session
        _check_session_name(name)
        lock = self._session_locks.setdefault(name, asyncio.Lock())
        async with lock:
            session = self.sessions.get(name)
            if session is None:
                service = await asyncio.to_thread(self._open_service, name)
                session = TenantSession(name, service, self, self.limits)
                self.sessions[name] = session
        return session

    def _open_service(self, name: str) -> CoreService:
        if self.log_dir is None:
            return CoreService.open(engine=self.engine)
        self.log_dir.mkdir(parents=True, exist_ok=True)
        log = self.log_dir / f"{name}.wal"
        if log.exists():
            # Server restart: resume the tenant from its own log.
            return CoreService.recover(log, fsync=self.fsync)
        return CoreService.open(engine=self.engine, log=log, fsync=self.fsync)

    def _get_replica(self, session: TenantSession) -> LogReplica:
        if not session.recoverable:
            raise ServiceError(
                f"session {session.name!r} keeps no commit log; replicas "
                "tail the log — start the server with log_dir=..."
            )
        if session.replica is None:
            session.replica = LogReplica(session.service.log_path)
        return session.replica

    # -- connection handling -------------------------------------------

    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        self._conns.add(task)
        conn = _Connection(writer, self.limits)
        requests: set[asyncio.Task] = set()
        try:
            while True:
                try:
                    message = await protocol.read_message(reader)
                except protocol.ProtocolError:
                    break  # not speaking our protocol: drop the peer
                if message is None:
                    break
                # One task per request: a connection multiplexes — a
                # commit waiting out its deadline must not block the
                # peer's other requests.
                request = asyncio.create_task(
                    self._serve_request(conn, message)
                )
                requests.add(request)
                request.add_done_callback(requests.discard)
        except (ConnectionError, OSError):
            pass  # connection-level fault: drop the peer, server lives on
        except asyncio.CancelledError:
            pass  # server shutdown: finish cleanup, end the task cleanly
        finally:
            for request in list(requests):
                request.cancel()
            if requests:
                await asyncio.gather(*requests, return_exceptions=True)
            for subscriber in list(conn.subs.values()):
                subscriber.session.subscribers.pop(subscriber.sub_id, None)
                subscriber.close()
            conn.subs.clear()
            writer.close()
            self._conns.discard(task)

    async def _serve_request(self, conn: _Connection, message: dict) -> None:
        try:
            response = await self._dispatch(conn, message)
            if response is not None:
                await conn.send(response)
        except (InjectedFault, ConnectionError, OSError):
            # A network fault point fired (or the peer vanished) while
            # answering: the connection is the casualty, not the server.
            conn.abort()
        except asyncio.CancelledError:
            pass

    async def _dispatch(self, conn: _Connection,
                        message: dict) -> Optional[dict]:
        req_id = message.get("id")
        method = message.get("method")
        params = message.get("params") or {}
        if req_id is None or not isinstance(method, str):
            return protocol.failure(
                req_id, protocol.ERR_BAD_REQUEST,
                "requests need an 'id' and a 'method'",
            )
        if not isinstance(params, dict):
            return protocol.failure(
                req_id, protocol.ERR_BAD_REQUEST,
                f"'params' must be an object, got {params!r}",
            )
        if method == "ping":
            return protocol.ok(req_id, "pong")
        if method == "server_stats":
            return protocol.ok(req_id, self.stats())
        name = message.get("session") or "default"
        try:
            _check_session_name(name)
        except ServiceError as exc:
            return protocol.failure(req_id, protocol.ERR_BAD_REQUEST, str(exc))
        try:
            session = await self.get_session(name)
        except (ReproError, OSError) as exc:
            return protocol.failure(
                req_id, protocol.ERR_INTERNAL, str(exc)
            )
        try:
            if method == "commit":
                return await self._handle_commit(req_id, session, params)
            if method == "query":
                return await self._handle_query(req_id, session, params)
            if method == "status":
                return protocol.ok(req_id, session.status())
            if method == "subscribe":
                return self._handle_subscribe(conn, req_id, session, params)
            if method == "unsubscribe":
                return self._handle_unsubscribe(conn, req_id, params)
        except InjectedFault:
            raise  # network fault points propagate to the handler
        except (ReproError, OSError, KeyError, TypeError, ValueError) as exc:
            return protocol.failure(
                req_id, protocol.ERR_INTERNAL, f"{type(exc).__name__}: {exc}"
            )
        return protocol.failure(
            req_id, protocol.ERR_BAD_REQUEST, f"unknown method {method!r}"
        )

    # -- request handlers ----------------------------------------------

    async def _handle_commit(self, req_id, session: TenantSession,
                             params: dict) -> dict:
        token = params.get("token")
        try:
            if token is not None and not isinstance(token, str):
                raise ServiceError(
                    f"'commit' needs a string 'token', got {token!r}"
                )
            deadline_ms = _int_param("commit", params, "deadline_ms", None)
        except ServiceError as exc:
            return protocol.failure(req_id, protocol.ERR_BAD_REQUEST, str(exc))
        deadline = (
            deadline_ms / 1000.0
            if deadline_ms is not None
            else self.limits.default_deadline
        )
        retry_ms = max(1, int(self.limits.retry_after * 1000))
        if token is not None and token in session.tokens:
            session.tokens.move_to_end(token)
            summary = dict(session.tokens[token])
            summary["replayed"] = True
            return protocol.ok(req_id, summary)
        pending = (
            session.pending_tokens.get(token) if token is not None else None
        )
        if pending is not None:
            # A retry of a commit still in flight: attach to it instead
            # of enqueuing a second apply (exactly-once under retry
            # racing the original).
            return await self._await_commit(
                req_id, session, pending, deadline, retry_ms,
                replayed=True,
            )
        if session.state != HEALTHY:
            if session.recoverable and session.state != CLOSED:
                return protocol.failure(
                    req_id, protocol.ERR_RETRY_AFTER,
                    f"session {session.name!r} is {session.state}; "
                    "recovering from its log",
                    retryable=True, retry_after_ms=retry_ms * 4,
                )
            return protocol.failure(
                req_id, protocol.ERR_DEGRADED,
                f"session {session.name!r} is {session.state} and keeps "
                "no commit log; reads still answer from last-good state",
            )
        if deadline <= 0:
            session.deadline_expired += 1
            return protocol.failure(
                req_id, protocol.ERR_DEADLINE,
                "deadline expired before admission", retryable=True,
            )
        if self.inflight >= self.limits.max_inflight:
            self.shed += 1
            session.shed += 1
            return protocol.failure(
                req_id, protocol.ERR_RETRY_AFTER,
                f"server at max_inflight={self.limits.max_inflight}",
                retryable=True, retry_after_ms=retry_ms,
            )
        try:
            batch = batch_from_ops(params.get("ops", ()))
        except (ReproError, TypeError, ValueError) as exc:
            return protocol.failure(
                req_id, protocol.ERR_BATCH, str(exc)
            )
        future = asyncio.get_running_loop().create_future()
        item = _PendingCommit(batch, token, future)
        try:
            session.queue.put_nowait(item)
        except asyncio.QueueFull:
            self.shed += 1
            session.shed += 1
            depth = session.queue.qsize()
            hint = int(
                retry_ms * (1 + depth / max(1, self.limits.max_pending))
            )
            return protocol.failure(
                req_id, protocol.ERR_RETRY_AFTER,
                f"session {session.name!r} commit queue is full "
                f"({depth} pending)",
                retryable=True, retry_after_ms=hint,
            )
        self.inflight += 1
        self.admitted += 1
        if token is not None:
            session.pending_tokens[token] = future
        future.add_done_callback(_reap_commit(session, token))
        return await self._await_commit(
            req_id, session, future, deadline, retry_ms
        )

    async def _await_commit(self, req_id, session: TenantSession, future,
                            deadline: float, retry_ms: int, *,
                            replayed: bool = False) -> dict:
        try:
            # shield(): a deadline abandons the *waiter*, never the
            # commit — the single writer finishes it and records the
            # token, so the client's retry is answered idempotently.
            summary = await asyncio.wait_for(
                asyncio.shield(future), deadline
            )
        except asyncio.TimeoutError:
            session.deadline_expired += 1
            return protocol.failure(
                req_id, protocol.ERR_DEADLINE,
                "deadline expired while the commit was in flight; retry "
                "with the same token to resolve it exactly once",
                retryable=True,
            )
        except BatchError as exc:
            return protocol.failure(req_id, protocol.ERR_BATCH, str(exc))
        except _SessionCrash as exc:
            return protocol.failure(
                req_id, protocol.ERR_RETRY_AFTER,
                f"session {session.name!r} crashed mid-commit ({exc}); "
                "retry with the same token after recovery",
                retryable=True, retry_after_ms=retry_ms * 4,
            )
        if replayed:
            summary = dict(summary)
            summary["replayed"] = True
        return protocol.ok(req_id, summary)

    async def _handle_query(self, req_id, session: TenantSession,
                            params: dict) -> dict:
        op = params.get("op")
        if not isinstance(op, str):
            return protocol.failure(
                req_id, protocol.ERR_BAD_REQUEST, "query needs an 'op'"
            )
        replica = None
        if params.get("replica"):
            replica = await asyncio.to_thread(self._get_replica, session)
            await asyncio.to_thread(replica.refresh)
        try:
            if replica is None:
                return protocol.ok(req_id, session.query(op, params))
            result, receipt = await asyncio.to_thread(
                replica.read, lambda index: answer(index, op, params)
            )
            return protocol.ok(req_id, {
                "result": result,
                "source": "replica",
                "receipt": receipt,
                "state": session.state,
            })
        except ServiceError as exc:
            return protocol.failure(
                req_id, protocol.ERR_BAD_REQUEST, str(exc)
            )

    def _handle_subscribe(self, conn: _Connection, req_id,
                          session: TenantSession, params: dict) -> dict:
        limit = self.limits.subscriber_buffer
        try:
            min_k = _int_param("subscribe", params, "min_k", None)
            buffer = _int_param(
                "subscribe", params, "buffer", limit, minimum=1
            )
        except ServiceError as exc:
            return protocol.failure(req_id, protocol.ERR_BAD_REQUEST, str(exc))
        buffer = min(buffer, limit)
        sub_id = next(self._sub_ids)
        subscriber = _RemoteSubscriber(session, conn, sub_id, min_k, buffer)
        session.subscribers[sub_id] = subscriber
        conn.subs[sub_id] = subscriber
        return protocol.ok(req_id, {"sub": sub_id, "buffer": buffer})

    def _handle_unsubscribe(self, conn: _Connection, req_id,
                            params: dict) -> dict:
        sub_id = params.get("sub")
        subscriber = (
            conn.subs.pop(sub_id, None) if isinstance(sub_id, Hashable)
            else None
        )
        if subscriber is None:
            return protocol.failure(
                req_id, protocol.ERR_BAD_REQUEST,
                f"unknown subscription {sub_id!r} on this connection",
            )
        subscriber.session.subscribers.pop(sub_id, None)
        subscriber.close()
        return protocol.ok(req_id, {"sub": sub_id, "closed": True})
