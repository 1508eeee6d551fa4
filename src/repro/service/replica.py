"""Read replicas fed by incremental write-ahead-log tailing.

A :class:`LogReplica` maintains its *own* engine from a durable
session's commit log (:mod:`repro.service.wal`), so reads never touch
the primary's write path — the serving front answers ``replica=true``
queries with :func:`repro.service.server.answer` over the replica's
:attr:`~LogReplica.index`, the same read dispatcher the session uses.
The index owns a copy of the engine's core map, folds in each tailed
record, and is replaced with the engine on every rebuild.

It catches up the way recovery does: on first attach, and again when it
notices the log rotated under it (the header changed or the file
shrank), :func:`~repro.service.wal.rebuild` replays the log into the
compaction snapshot's graph and builds the engine once.  Between
rebuilds it polls with :func:`~repro.service.wal.tail` from its last
frame offset (decoding O(new bytes), not O(log)) and applies only the
records it has not seen, incrementally through the engine's
``apply_batch``.  ``tail`` walks frames and decodes commit records
exactly as recovery's :func:`~repro.service.wal.scan` does, so a
replica refuses the same logs, with
:class:`~repro.errors.LogCorruptionError`.

Staleness contract
------------------
A replica reflects exactly the commits whose records were *written to
the log* at its last :meth:`refresh` — nothing newer, and because the
session appends before applying (write-ahead ordering), possibly one
commit the primary has not finished applying yet.  :attr:`receipt`
reports the last replayed receipt id so callers can bound staleness
against the primary's.  Replicas never write: no locks are shared with
the primary beyond the filesystem.

Fault point: ``replica.stale_read`` — when armed, :meth:`refresh` skips
its poll and the replica knowingly serves stale state (a *behavioural*
fault the replica catches, unlike the durable-path crash points which
are never caught).
"""

from __future__ import annotations

import threading
from pathlib import Path
from typing import Callable

from repro.analysis.kcore_views import CoreIndex
from repro.engine.batch import Batch
from repro.graphs.undirected import DynamicGraph
from repro.service.wal import rebuild, replay, scan, tail
from repro.testing.faults import InjectedFault, inject, register_fault_point

register_fault_point(
    "replica.stale_read",
    "LogReplica.refresh: the poll is skipped and replica reads "
    "knowingly answer from stale state (behavioural: caught by the "
    "replica, counted in stale_serves)",
)


class LogReplica:
    """A read-only engine kept current by tailing a session's commit log.

    Parameters
    ----------
    log:
        Path of the primary's write-ahead log.
    """

    def __init__(self, log) -> None:
        self._log = Path(log)
        self._engine = None
        self._index = None
        # Serializes refreshes and reads: the serving front runs both in
        # worker threads, and a read must not see a half-applied record.
        self._lock = threading.Lock()
        self._header: dict = {}
        self._offset = 0
        self._applied = 0
        #: Full rebuilds performed (initial build + one per rotation).
        self.rebuilds = 0
        #: Successful incremental polls.
        self.refreshes = 0
        #: Polls skipped by the ``replica.stale_read`` fault point.
        self.stale_serves = 0
        self._build()

    # ------------------------------------------------------------------
    # Log replay
    # ------------------------------------------------------------------

    def _build(self) -> None:
        """(Re)build the replica engine from the log, indexing once."""
        info = scan(self._log)
        self._engine, self._applied, _, _ = rebuild(self._log, info)
        self._index = CoreIndex(self._engine.core)
        self._header = info.header
        self._offset = info.valid_bytes
        self.rebuilds += 1

    def refresh(self) -> int:
        """Poll the log and apply new records; returns how many applied.

        Tolerates a writer mid-append (the partial frame is left for the
        next poll) and notices log rotation — a compaction — by the
        header changing or the file shrinking, triggering a rebuild from
        the new snapshot and log.  Safe to call from several threads.
        """
        with self._lock:
            try:
                inject("replica.stale_read")
            except InjectedFault:
                self.stale_serves += 1
                return 0
            chunk = tail(self._log, self._offset)
            if chunk.rotated or chunk.header != self._header:
                before = self._applied
                self._build()
                return max(0, self._applied - before)
            self._applied, applied = replay(
                self._log, chunk.records, self._applied, self._engine.graph,
                self._apply,
            )
            self._offset = chunk.valid_bytes
            self.refreshes += 1
            return applied

    def _apply(self, batch: Batch) -> None:
        self._index.fold(batch, self._engine.apply_batch(batch).changed)

    def read(self, reader: Callable[[CoreIndex], object]) -> tuple:
        """``(reader(index), receipt)``, taken while no refresh runs, so
        the answer is exactly the state of the receipt beside it."""
        with self._lock:
            return reader(self._index), self._applied

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def log_path(self) -> Path:
        return self._log

    @property
    def receipt(self) -> int:
        """Receipt id of the last commit the replica has replayed."""
        return self._applied

    @property
    def engine(self):
        """The replica's engine (treat as strictly read-only)."""
        return self._engine

    @property
    def index(self) -> CoreIndex:
        """The read index over the replica's core map."""
        return self._index

    @property
    def graph(self) -> DynamicGraph:
        return self._engine.graph

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"LogReplica({str(self._log)!r}, receipt={self._applied}, "
            f"refreshes={self.refreshes}, rebuilds={self.rebuilds})"
        )
