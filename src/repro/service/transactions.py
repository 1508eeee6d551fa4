"""Service transactions: accumulate updates, commit once, get a receipt.

A :class:`Transaction` is the service's unit of write work: operations
recorded on it build a validated :class:`~repro.engine.batch.Batch`
(normalization, dedup and self-loop rejection happen at record time, so
bad updates fail *before* anything touches the engine), and the whole
batch reaches the engine in **one** ``apply_batch`` call — the schedule
that lets the order engine coalesce its repair per run.

Commit produces a :class:`CommitReceipt`: the engine's
:class:`~repro.engine.batch.BatchResult` counters plus the commit's net
core deltas and the :class:`~repro.service.events.CoreEvent` records
that were (or would be) delivered to subscribers.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Hashable, Iterable, Mapping

from repro.engine.batch import Batch, BatchResult
from repro.errors import TransactionError
from repro.service.events import CoreEvent, events_from_deltas

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.service.session import CoreService

Vertex = Hashable
Edge = tuple[Vertex, Vertex]


class CommitReceipt:
    """Outcome of one committed service transaction.

    Attributes
    ----------
    receipt_id:
        Monotonically increasing per service session; events carry it so
        subscribers can correlate deliveries with commits.
    result:
        The engine's raw :class:`~repro.engine.batch.BatchResult`
        (op counts, search-space size, instrumentation counters, wall
        time inside the engine).
    deltas:
        Net core-number change per vertex over the commit; vertices whose
        core ended where it started are absent.  Treat as read-only.
    events:
        The commit's :class:`~repro.service.events.CoreEvent` records in
        deterministic (vertex-key) order — what subscribers received,
        before any ``min_k`` filtering.  Built lazily from per-commit
        state on first access (and cached), so subscriber-free commits
        never pay for event materialization.
    """

    __slots__ = ("receipt_id", "result", "deltas", "_new_cores", "_events")

    def __init__(
        self,
        receipt_id: int,
        result: BatchResult,
        deltas: Mapping[Vertex, int],
        new_cores: Mapping[Vertex, int],
    ) -> None:
        self.receipt_id = receipt_id
        self.result = result
        self.deltas = deltas
        self._new_cores = new_cores
        self._events: tuple[CoreEvent, ...] | None = None

    @property
    def events(self) -> tuple[CoreEvent, ...]:
        if self._events is None:
            self._events = events_from_deltas(
                self.deltas, self._new_cores, self.receipt_id
            )
        return self._events

    @property
    def engine(self) -> str:
        """Name of the engine that applied the commit."""
        return self.result.engine

    @property
    def inserts(self) -> int:
        return self.result.inserts

    @property
    def removes(self) -> int:
        return self.result.removes

    @property
    def ops(self) -> int:
        """Total operations committed."""
        return self.result.ops

    @property
    def seconds(self) -> float:
        """Wall time spent inside the engine's ``apply_batch``."""
        return self.result.seconds

    @property
    def counters(self) -> dict:
        """The engine's per-commit instrumentation counters."""
        return self.result.counters

    @property
    def promotions(self) -> int:
        """Total core levels climbed across the commit's vertices."""
        return sum(d for d in self.deltas.values() if d > 0)

    @property
    def demotions(self) -> int:
        """Total core levels dropped across the commit's vertices."""
        return -sum(d for d in self.deltas.values() if d < 0)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CommitReceipt(id={self.receipt_id}, engine={self.engine!r}, "
            f"ops={self.ops}, changed={len(self.deltas)})"
        )


class Transaction:
    """An open unit of work against a :class:`CoreService`.

    Use as a context manager (the usual shape):

    >>> from repro.service.session import CoreService
    >>> svc = CoreService.open([(0, 1), (1, 2), (2, 0)])
    >>> with svc.transaction() as tx:
    ...     _ = tx.insert(0, 3).insert(1, 3)
    >>> tx.state
    'committed'
    >>> tx.receipt.deltas
    {3: 2}
    >>> with svc.transaction() as tx:
    ...     _ = tx.remove(0, 1)
    ...     tx.rollback()
    >>> svc.graph.has_edge(0, 1)   # nothing reached the engine
    True

    Leaving the block commits; leaving it on an exception rolls back —
    nothing recorded reaches the engine.  :meth:`commit` and
    :meth:`rollback` close the transaction explicitly; a closed
    transaction rejects every further call with
    :class:`~repro.errors.TransactionError`.

    Operations are validated as they are recorded (edge normalization,
    duplicate dropping, self-loop rejection — see
    :class:`~repro.engine.batch.Batch`), so a bad update raises at the
    call site while the transaction is still open, and the transaction
    remains usable afterwards.
    """

    __slots__ = ("_service", "_batch", "_state", "_receipt")

    _OPEN, _COMMITTED, _ROLLED_BACK = "open", "committed", "rolled back"
    _FAILED = "failed"

    def __init__(self, service: "CoreService") -> None:
        self._service = service
        self._batch = Batch()
        self._state = self._OPEN
        self._receipt: CommitReceipt | None = None

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------

    def insert(self, u: Vertex, v: Vertex) -> "Transaction":
        """Record an edge insertion; returns ``self`` for chaining."""
        self._require_open()
        self._batch.insert(u, v)
        return self

    def remove(self, u: Vertex, v: Vertex) -> "Transaction":
        """Record an edge removal; returns ``self`` for chaining."""
        self._require_open()
        self._batch.remove(u, v)
        return self

    def insert_many(self, edges: Iterable[Edge]) -> "Transaction":
        """Record a run of insertions (bulk-load shape)."""
        self._require_open()
        for u, v in edges:
            self._batch.insert(u, v)
        return self

    def remove_many(self, edges: Iterable[Edge]) -> "Transaction":
        """Record a run of removals (window-expiry shape)."""
        self._require_open()
        for u, v in edges:
            self._batch.remove(u, v)
        return self

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def batch(self) -> Batch:
        """The accumulated batch (the service owns it after commit)."""
        return self._batch

    @property
    def state(self) -> str:
        """``"open"``, ``"committed"``, ``"rolled back"`` or ``"failed"``.

        ``"committed"`` is set only after the engine accepted the whole
        batch; a commit that raised leaves the transaction ``"failed"``,
        never falsely claiming success.
        """
        return self._state

    @property
    def receipt(self) -> CommitReceipt:
        """The commit's receipt; raises until the transaction commits."""
        if self._receipt is None:
            raise TransactionError(
                f"transaction is {self._state}; no receipt to read"
            )
        return self._receipt

    def __len__(self) -> int:
        return len(self._batch)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        i, r = self._batch.counts()
        return f"Transaction({self._state}, {i} inserts, {r} removes)"

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def commit(self) -> CommitReceipt:
        """Apply the accumulated batch through the service's engine.

        One ``apply_batch`` call, one receipt, one event dispatch — even
        for an empty transaction (which commits an empty batch and emits
        no events).  The service validates the batch against the graph
        before the engine touches anything, so an invalid op raises
        :class:`~repro.errors.BatchError` here with the graph unchanged
        and the transaction marked ``"failed"``.  A *subscriber* that
        raises still propagates, but by then the commit has landed and
        its receipt is published — the transaction reports
        ``"committed"`` and :attr:`receipt` works, never blaming the
        engine for a callback's failure.
        """
        self._require_open()
        before = self._service.last_receipt
        try:
            self._receipt = self._service._commit(self._batch)
        except BaseException:
            landed = self._service.last_receipt
            if landed is not None and landed is not before:
                # The engine accepted the batch and the receipt was
                # published; the exception came from event dispatch.
                self._receipt = landed
                self._state = self._COMMITTED
            else:
                self._state = self._FAILED
            raise
        self._state = self._COMMITTED
        return self._receipt

    def rollback(self) -> None:
        """Discard the accumulated batch without touching the engine."""
        self._require_open()
        self._state = self._ROLLED_BACK

    def __enter__(self) -> "Transaction":
        self._require_open()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if self._state != self._OPEN:
            return  # committed/rolled back explicitly inside the block
        if exc_type is None:
            self.commit()
        else:
            self.rollback()

    def _require_open(self) -> None:
        if self._state != self._OPEN:
            raise TransactionError(
                f"transaction is already {self._state}"
            )
