"""The :class:`CoreService` session: the library's one public entry point.

A service wraps one maintenance engine behind three surfaces:

* **writes** — :meth:`CoreService.transaction` accumulates a batch and
  commits it atomically (plus :meth:`~CoreService.insert` /
  :meth:`~CoreService.remove` one-op sugar and
  :meth:`~CoreService.apply` for prebuilt batches);
* **reads** — :meth:`~CoreService.core`, :meth:`~CoreService.cores`,
  :meth:`~CoreService.kcore`, :meth:`~CoreService.degeneracy`,
  :meth:`~CoreService.top`, :meth:`~CoreService.spectrum`, all answered
  from the session's :class:`~repro.analysis.kcore_views.CoreIndex`
  (:attr:`~CoreService.index`), which owns a copy of the core map and
  folds in each acked commit — never from the engine.  ``top``,
  ``spectrum`` and ``degeneracy`` are lookups; ``kcore`` is a live scan
  of the index's map;
* **reactions** — :meth:`~CoreService.subscribe` delivers
  :class:`~repro.service.events.CoreEvent` records derived from each
  commit's exact net core deltas.

Sessions are durable two ways: :meth:`~CoreService.save` /
:meth:`CoreService.load` checkpoint the graph explicitly and rebuild the
engine from it (:mod:`repro.core.snapshot`), and :meth:`open` with
``log=`` attaches a write-ahead commit log (:mod:`repro.service.wal`) so
every commit is on disk *before* the engine applies it.  After a crash
:meth:`CoreService.recover` replays the log into the latest snapshot's
graph and builds the engine once (:func:`repro.service.wal.rebuild`),
and :meth:`~CoreService.compact` folds the log back into a snapshot.
Both work for every engine.
"""

from __future__ import annotations

from pathlib import Path
from typing import Hashable, Iterable, NamedTuple, Optional, Union

from repro.analysis import kcore_views
from repro.engine.base import CoreMaintainer
from repro.engine.batch import Batch
from repro.engine.registry import DEFAULT_ENGINE, make_engine
from repro.errors import ServiceError
from repro.graphs.undirected import DynamicGraph
from repro.service.events import EventCallback, Subscription
from repro.service.transactions import CommitReceipt, Transaction
from repro.testing.faults import inject

Vertex = Hashable
Edge = tuple[Vertex, Vertex]

_MISSING = object()


class RecoveryReport(NamedTuple):
    """What :meth:`CoreService.recover` did (``svc.recovery``).

    ``replayed`` log records were applied, ``skipped`` were already in
    the snapshot (idempotent replay), ``torn_bytes`` of torn tail were
    truncated, and ``from_snapshot`` says whether a snapshot's graph
    seeded the replay (else it started from an empty graph).
    """

    replayed: int
    skipped: int
    torn_bytes: int
    from_snapshot: bool


class CoreService:
    """A long-lived core-maintenance session over one evolving graph.

    Build one with :meth:`open` (by engine registry name) or
    :meth:`load` (from a :meth:`save` checkpoint); the constructor also
    accepts an existing :class:`~repro.engine.base.CoreMaintainer` to
    adopt.  The service takes ownership of the engine and its graph —
    all further updates must go through the service so subscribers see
    every change.

    >>> svc = CoreService.open([(0, 1), (1, 2), (2, 0)])
    >>> svc.core(0)
    2
    >>> with svc.transaction() as tx:
    ...     _ = tx.insert(0, 3).insert(1, 3)
    >>> tx.receipt.deltas
    {3: 2}
    >>> sorted(svc.kcore(2))
    [0, 1, 2, 3]
    """

    def __init__(self, engine: CoreMaintainer) -> None:
        self._engine = engine
        self._subscribers: list[Subscription] = []
        self._next_receipt = 1
        self._last_receipt: Optional[CommitReceipt] = None
        self._wal = None
        self._closed = False
        self._poisoned = False
        self._recovery: Optional[RecoveryReport] = None
        self._logged_tokens: dict[int, str] = {}
        self._index = kcore_views.CoreIndex(engine.core)

    # ------------------------------------------------------------------
    # Session construction
    # ------------------------------------------------------------------

    @classmethod
    def open(
        cls,
        graph: Union[DynamicGraph, Iterable[Edge], None] = None,
        *,
        engine: str = DEFAULT_ENGINE,
        audit: bool = False,
        log=None,
        fsync: str = "always",
        fsync_every: Optional[int] = None,
    ) -> "CoreService":
        """Open a service over ``graph`` with a registry-named engine.

        ``graph`` may be a :class:`~repro.graphs.undirected.DynamicGraph`
        (adopted as-is), any iterable of edges, or ``None`` for an empty
        graph.  ``engine`` is any :func:`~repro.engine.registry.make_engine`
        name (``"order-simplified"``, ``"order"``, ``"trav-<h>"``,
        ``"naive"``); ``audit=True`` makes the engine audit its
        invariants after every update.

        With ``log=path`` the session is durable: a fresh write-ahead
        commit log (:mod:`repro.service.wal`) is created at ``path`` —
        never silently reused; recover from an existing log with
        :meth:`recover` — and every commit is appended (and, per the
        ``fsync`` policy ``"always"`` / ``"interval"`` / ``"never"``,
        fsynced) *before* the engine applies it.  A non-empty starting
        graph is immediately checkpointed (:meth:`compact`) so recovery
        has a base snapshot.

        >>> CoreService.open([(0, 1)], engine="naive").engine_name
        'naive'
        >>> CoreService.open().graph.n        # empty session
        0
        """
        if graph is None:
            graph = DynamicGraph()
        elif not isinstance(graph, DynamicGraph):
            graph = DynamicGraph(graph)
        service = cls(make_engine(engine, graph, audit=audit))
        if log is not None:
            from repro.service.wal import DEFAULT_FSYNC_EVERY, WriteAheadLog

            service._wal = WriteAheadLog.create(
                Path(log),
                engine=engine,
                opts={"audit": audit} if audit else {},
                fsync=fsync,
                fsync_every=fsync_every or DEFAULT_FSYNC_EVERY,
            )
            if graph.n:
                # The log only replays commits; a non-empty base state
                # must come from a snapshot, taken right now.
                service.compact()
        return service

    @classmethod
    def load(cls, path) -> "CoreService":
        """Restore a service from a :meth:`save` checkpoint.

        The checkpoint holds the graph and the engine name; the engine
        is built once over the graph (see :mod:`repro.core.snapshot`,
        which also reads the index-format checkpoints of older builds).
        Subscriptions are runtime state, not part of the checkpoint —
        re-subscribe on the restored service and events flow from its
        first commit.
        """
        from repro.core.snapshot import load_snapshot

        return cls(load_snapshot(path))

    @classmethod
    def recover(
        cls,
        log,
        *,
        fsync: str = "always",
        fsync_every: Optional[int] = None,
    ) -> "CoreService":
        """Rebuild a durable session from its commit log after a crash.

        The latest compaction snapshot's graph (if any) takes every log
        record it does not already cover, in receipt order, each checked
        with :meth:`~repro.engine.batch.Batch.check_applicable`; then the
        header's engine is built once over the result
        (:func:`repro.service.wal.rebuild`).  Replay is **idempotent**:
        records at or below the snapshot's receipt id are skipped, so
        recovering twice — or recovering a log whose compaction crashed
        between the snapshot rename and the log truncation — lands the
        same state as recovering once.  A torn tail record (crash
        mid-append) is truncated away; corruption beyond that, or a
        record that no longer applies, raises
        :class:`~repro.errors.LogCorruptionError`.

        The returned service is live and attached to the (repaired) log:
        its receipt ids continue after the last logged commit, and new
        commits append under the given ``fsync`` policy.  What happened
        is reported in :attr:`recovery`, and the idempotency tokens the
        log holds in :attr:`logged_tokens`.
        """
        from repro.service.wal import (
            DEFAULT_FSYNC_EVERY,
            WriteAheadLog,
            rebuild,
            scan,
        )

        log = Path(log)
        info = scan(log)
        engine, receipt, replayed, from_snapshot = rebuild(log, info)
        service = cls(engine)
        service._next_receipt = max(info.last_receipt, receipt) + 1
        service._logged_tokens = info.tokens
        service._wal = WriteAheadLog.attach(
            log,
            info,
            fsync=fsync,
            fsync_every=fsync_every or DEFAULT_FSYNC_EVERY,
        )
        service._recovery = RecoveryReport(
            replayed=replayed,
            skipped=len(info.records) - replayed,
            torn_bytes=info.torn_bytes,
            from_snapshot=from_snapshot,
        )
        return service

    def save(self, path) -> None:
        """Checkpoint the session's graph and engine name as JSON at
        ``path`` (atomically; see :mod:`repro.core.snapshot`)."""
        from repro.core.snapshot import save_snapshot

        save_snapshot(self._engine, path)

    def compact(self) -> Path:
        """Fold the commit log into a snapshot and truncate it.

        Writes the current graph as the session's snapshot (atomically:
        temp file, fsync, rename) stamped with the last issued receipt
        id, then rotates the log down to a fresh header whose
        ``base_receipt`` records what the snapshot covers.  A crash
        between the two steps is safe: recovery skips log records the
        snapshot already contains.  Requires a logged session; returns
        the snapshot path.
        """
        from repro.core.snapshot import to_snapshot, write_json_atomic
        from repro.service.wal import snapshot_path

        self._require_open()
        if self._poisoned:
            raise ServiceError(
                "engine was poisoned by a mid-commit failure; refusing to "
                "snapshot a possibly half-mutated index — recover from "
                "the log instead"
            )
        if self._wal is None:
            raise ServiceError(
                "service has no commit log to compact; open the session "
                "with log=... or CoreService.recover"
            )
        receipt = self.last_receipt_id
        snapshot = to_snapshot(self._engine)
        snapshot["receipt"] = receipt
        path = snapshot_path(self._wal.path)
        write_json_atomic(snapshot, path)
        self._wal.rotate(receipt)
        return path

    def close(self) -> None:
        """End the session: flush and close the log, release the engine.

        Idempotent.  Reads keep working on the final state; any further
        commit (or :meth:`compact`) raises
        :class:`~repro.errors.ServiceError`.
        """
        if self._closed:
            return
        self._closed = True
        if self._wal is not None:
            self._wal.close()

    def __enter__(self) -> "CoreService":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def _require_open(self) -> None:
        if self._closed:
            raise ServiceError(
                "service is closed; reads still answer, but commits and "
                "compaction need a live session"
            )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def engine(self) -> CoreMaintainer:
        """The underlying engine.

        The escape hatch for per-edge measurement only: timing or
        validating the engine's own update algorithms edge by edge, and
        reading its counters.  Analysis that writes goes through a
        :meth:`transaction`: updates applied behind the service's back
        are invisible to subscribers and to every read, since the
        reads answer from :attr:`index`, which only learns of commits
        made through the service.
        """
        return self._engine

    @property
    def index(self) -> kcore_views.CoreIndex:
        """The read index every read answers from: its own core map,
        folded forward by each acked commit.  After a failed commit it
        still holds the last acked state, so the serving front answers
        healthy and degraded reads from it alike."""
        return self._index

    @property
    def engine_name(self) -> str:
        """Registry-style name of the underlying engine."""
        return self._engine.name

    @property
    def graph(self) -> DynamicGraph:
        """The served graph (read-only; mutate through transactions)."""
        return self._engine.graph

    @property
    def last_receipt(self) -> Optional[CommitReceipt]:
        """Receipt of the most recent commit (``None`` before the first)."""
        return self._last_receipt

    @property
    def log_path(self) -> Optional[Path]:
        """Path of the attached commit log (``None`` when unlogged)."""
        return self._wal.path if self._wal is not None else None

    @property
    def recovery(self) -> Optional[RecoveryReport]:
        """How this session was recovered (``None`` unless built by
        :meth:`recover`)."""
        return self._recovery

    @property
    def logged_tokens(self) -> dict[int, str]:
        """Receipt id -> idempotency token of the records :meth:`recover`
        found in the log (empty otherwise)."""
        return self._logged_tokens

    @property
    def last_receipt_id(self) -> int:
        """Id of the last receipt minted, including those minted before
        a recovery."""
        return self._next_receipt - 1

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has ended the session."""
        return self._closed

    @property
    def poisoned(self) -> bool:
        """Whether a mid-commit engine failure invalidated the session.

        A poisoned session still answers every read of core numbers
        from the last acked state: the failed commit never reached
        :attr:`index`, whatever it left in the engine and in
        :attr:`graph`.  ``kcore(k).subgraph()`` would induce on that
        half-applied graph, so it raises :class:`ValueError` instead.
        The session refuses every further commit.  On a logged session,
        :meth:`recover` builds a clean replacement from the log.
        """
        return self._poisoned

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        g = self.graph
        return (
            f"CoreService(engine={self._engine.name!r}, "
            f"n={g.n}, m={g.m}, subscribers={len(self._subscribers)})"
        )

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------

    def transaction(self) -> Transaction:
        """Start a transaction; commit happens when its context exits."""
        self._require_open()
        return Transaction(self)

    def apply(
        self, batch: Batch, *, token: Optional[str] = None
    ) -> CommitReceipt:
        """Commit a prebuilt :class:`~repro.engine.batch.Batch`.

        ``token`` is an optional client-supplied idempotency key: on a
        logged session it is recorded in the commit's write-ahead record,
        so after a crash a retrying caller (the async serving front) can
        tell from the log whether this exact commit already landed
        instead of applying it twice.  The service itself does not
        deduplicate — the token is durable bookkeeping for supervisors.
        """
        return self._commit(batch, token=token)

    def insert(self, u: Vertex, v: Vertex) -> CommitReceipt:
        """One-op sugar: commit a single edge insertion."""
        return self._commit(Batch().insert(u, v))

    def remove(self, u: Vertex, v: Vertex) -> CommitReceipt:
        """One-op sugar: commit a single edge removal."""
        return self._commit(Batch().remove(u, v))

    def _commit(
        self, batch: Batch, *, token: Optional[str] = None
    ) -> CommitReceipt:
        """Apply ``batch``, mint a receipt, notify subscribers.

        The batch is validated against the current graph *first*
        (:meth:`~repro.engine.batch.Batch.check_applicable`), so an
        invalid op — inserting a present edge, removing an absent one —
        raises :class:`~repro.errors.BatchError` before the engine
        mutates anything and the commit stays atomic.  Only an
        engine-internal failure can still land a partial batch; engines
        document those as bugs, not service states — when one happens
        anyway (or a fault plan simulates one), the session is marked
        :attr:`poisoned` and refuses further commits: the engine is no
        longer trustworthy, and on a logged session :meth:`recover`
        rebuilds a clean one from the log.  The read index folds in a
        commit only once the engine returns, so reads keep answering
        the last acked state.

        On a logged session the batch is appended to the write-ahead
        log *before* the engine applies it (write-ahead ordering): a
        crash between the two leaves a logged-but-unapplied record,
        which :meth:`recover` replays onto the last snapshot — never a
        committed-but-unlogged change.
        """
        self._require_open()
        if self._poisoned:
            raise ServiceError(
                "engine was poisoned by a mid-commit failure; reads still "
                "answer from the last acked state, but commits need a "
                "fresh session (CoreService.recover on a logged session)"
            )
        batch.check_applicable(self._engine.graph)
        inject("service.before_commit")
        receipt_id = self._next_receipt
        self._next_receipt += 1
        if self._wal is not None:
            self._wal.append(receipt_id, batch, token=token)
        try:
            result = self._engine.apply_batch(batch)
        except BaseException:
            # The engine raised mid-apply: its index may be half-mutated
            # (validation already passed, so this is an engine-internal
            # failure or an injected crash).  Poison the session so no
            # later commit builds on a corrupt in-memory state; the read
            # index never saw the commit.
            self._poisoned = True
            raise
        deltas = result.changed
        self._index.fold(batch, deltas)
        core = self._index.core
        receipt = CommitReceipt(
            receipt_id=receipt_id,
            result=result,
            deltas=deltas,
            # Capture the changed vertices' post-commit cores now, so
            # the receipt's (lazily built) events stay correct however
            # the graph evolves after this commit.
            new_cores={v: core.get(v, 0) for v in deltas},
        )
        self._last_receipt = receipt
        if self._subscribers and deltas:
            events = receipt.events
            # Snapshot the list: callbacks may close their own (or any)
            # subscription mid-dispatch.
            for subscription in list(self._subscribers):
                subscription._deliver(events)
        return receipt

    # ------------------------------------------------------------------
    # Reads (backed by analysis.kcore_views)
    # ------------------------------------------------------------------

    def core(self, vertex: Vertex, default=_MISSING) -> int:
        """Core number of one vertex.

        Raises ``KeyError`` for a vertex the service has never seen,
        unless ``default`` is given.
        """
        c = self._index.core.get(vertex, _MISSING)
        if c is _MISSING:
            if default is _MISSING:
                raise KeyError(vertex)
            return default
        return c

    def cores(self) -> dict[Vertex, int]:
        """A snapshot copy of every vertex's core number."""
        return dict(self._index.core)

    def kcore(self, k: int) -> kcore_views.KCoreView:
        """A lazy, live membership view of the ``k``-core.

        O(1) membership tests, on-demand iteration, and it always
        answers for the last acked commit — no copy is taken.  Call
        ``.vertices()`` to pin a set or ``.subgraph()`` for the induced
        graph; on a :attr:`poisoned` session the view has no graph, so
        ``.subgraph()`` raises :class:`ValueError`.
        """
        graph = None if self._poisoned else self.graph
        return kcore_views.KCoreView(self._index.core, k, graph)

    def degeneracy(self) -> int:
        """The largest ``k`` with a non-empty ``k``-core."""
        return kcore_views.degeneracy(self._index)

    def top(self, n: int) -> list[tuple[Vertex, int]]:
        """The ``n`` vertices with the highest core numbers (descending)."""
        return kcore_views.top_cores(self._index, n)

    def spectrum(self) -> dict[int, int]:
        """Map ``k -> |k-shell|`` for every non-empty shell.

        >>> CoreService.open([(0, 1), (1, 2), (2, 0), (2, 3)]).spectrum()
        {1: 1, 2: 3}
        """
        return kcore_views.core_spectrum(self._index)

    # ------------------------------------------------------------------
    # Event stream
    # ------------------------------------------------------------------

    def subscribe(
        self,
        callback: Optional[EventCallback] = None,
        *,
        min_k: Optional[int] = None,
        max_pending: Optional[int] = None,
    ) -> Subscription:
        """Deliver every future commit's core events, pushed or pulled.

        **Push:** ``callback(event)`` runs synchronously during commit,
        once per changed vertex, after the engine's state is fully
        consistent — reading the service from inside a callback sees the
        post-commit world.  A callback that raises aborts the remaining
        dispatch and propagates out of the commit; the commit itself is
        already applied.

        **Pull:** with ``max_pending=N`` and no callback, events wait in
        a buffer of at most ``N`` on the subscription until
        :meth:`~repro.service.events.Subscription.take` pops them; a
        full buffer drops its oldest event and counts it in
        ``dropped_events``, so a lagging consumer never slows a commit.

        Pass exactly one of the two.  With ``min_k``, only events
        touching the cores at or above that level arrive
        (``max(old, new) >= min_k``).  Close the returned
        :class:`~repro.service.events.Subscription` (or use it as a
        context manager) to stop.

        >>> svc = CoreService.open([(0, 1), (1, 2), (2, 0)])
        >>> sub = svc.subscribe(
        ...     lambda e: print(e.vertex, e.old_core, "->", e.new_core)
        ... )
        >>> receipt = svc.insert(0, 3)
        3 0 -> 1
        >>> sub.close()
        >>> receipt = svc.insert(1, 3)   # closed: nothing printed
        """
        subscription = Subscription(
            self, callback, min_k, max_pending=max_pending
        )
        self._subscribers.append(subscription)
        return subscription

    @property
    def subscriber_count(self) -> int:
        """Number of live subscriptions."""
        return len(self._subscribers)

    def _unsubscribe(self, subscription: Subscription) -> None:
        try:
            self._subscribers.remove(subscription)
        except ValueError:  # already removed; close() is idempotent
            pass
