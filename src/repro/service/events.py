"""The service's core-event stream: records and subscriptions.

Every commit a :class:`~repro.service.CoreService` performs emits one
:class:`CoreEvent` per vertex whose core number *net-changed* over the
commit, derived from the engine's exact ``BatchResult.changed`` deltas.
Subscribers (optionally filtered to the cores at or above a level of
interest) receive the commit's events in a deterministic order — the
downstream-analysis hook the paper's motivation sections describe
(community tracking, engagement monitoring) without ever polling engine
state.  A subscription either *pushes* each event to a callback inline
on the commit path, or is *pulled*: events wait in a bounded buffer that
drops its oldest event when full (see :class:`Subscription`).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Hashable, Optional, Sequence

from repro.engine.batch import vertex_sort_key
from repro.errors import ServiceError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.service.session import CoreService

Vertex = Hashable


@dataclass(frozen=True)
class CoreEvent:
    """One vertex's net core-number change over one commit.

    Attributes
    ----------
    vertex:
        The vertex whose core number changed.
    old_core / new_core:
        Core number before and after the commit (``0`` for a vertex the
        commit introduced).  The two always differ.
    receipt_id:
        Id of the :class:`~repro.service.transactions.CommitReceipt`
        that produced the event, for correlating events with commits.
    """

    vertex: Vertex
    old_core: int
    new_core: int
    receipt_id: int

    @property
    def delta(self) -> int:
        """``new_core - old_core`` (never zero)."""
        return self.new_core - self.old_core

    @property
    def kind(self) -> str:
        """``"promotion"`` or ``"demotion"``."""
        return "promotion" if self.new_core > self.old_core else "demotion"


EventCallback = Callable[[CoreEvent], None]


class Subscription:
    """A live event subscription; close it (or exit its context) to stop.

    Created by :meth:`repro.service.CoreService.subscribe` — not
    directly.  With ``min_k`` set, only events that *touch* the cores at
    or above that level are delivered: a vertex entering, leaving, or
    moving within the ``>= min_k`` region (``max(old, new) >= min_k``).

    A subscription either pushes or is pulled:

    **Push (a callback):** ``callback(event)`` runs inline on the commit
    path, one call per filtered event — a slow callback slows every
    commit.

    **Pull (``max_pending=N``, no callback):** filtered events land in a
    buffer of at most ``N`` events, which the consumer empties with
    :meth:`take` on its own schedule.  A full buffer drops its oldest
    event and counts it in :attr:`dropped_events` — bounded memory,
    lossy, and the commit path never waits (the async serving front
    gives every remote subscriber one of these).
    """

    __slots__ = (
        "_service",
        "_callback",
        "_min_k",
        "_active",
        "_pending",
        "dropped_events",
    )

    def __init__(
        self,
        service: "CoreService",
        callback: Optional[EventCallback],
        min_k: Optional[int] = None,
        max_pending: Optional[int] = None,
    ) -> None:
        if (callback is None) == (max_pending is None):
            raise ServiceError(
                "a subscription takes a callback (push) or max_pending=N "
                "(pull, consumed via take()), not both or neither"
            )
        if min_k is not None and (
            isinstance(min_k, bool) or not isinstance(min_k, int)
        ):
            raise ServiceError(f"min_k must be an integer, got {min_k!r}")
        if max_pending is not None and max_pending < 1:
            raise ServiceError(
                f"max_pending must be >= 1, got {max_pending}"
            )
        self._service = service
        self._callback = callback
        self._min_k = min_k
        self._active = True
        # A push subscription never buffers; its deque stays empty.
        self._pending: deque[CoreEvent] = deque(maxlen=max_pending)
        #: Events a full pull buffer dropped so far.
        self.dropped_events = 0

    @property
    def active(self) -> bool:
        """Whether the subscription still receives events."""
        return self._active

    @property
    def min_k(self) -> Optional[int]:
        """The subscription's core-level filter (``None`` = everything)."""
        return self._min_k

    @property
    def max_pending(self) -> Optional[int]:
        """The pull buffer's bound (``None`` for a push subscription)."""
        return self._pending.maxlen

    @property
    def pending(self) -> int:
        """Buffered events awaiting :meth:`take`."""
        return len(self._pending)

    def close(self) -> None:
        """Stop receiving events; idempotent.

        Already-buffered events stay readable through :meth:`take` —
        closing stops *new* deliveries, it does not discard what the
        consumer has not seen yet.
        """
        if self._active:
            self._active = False
            self._service._unsubscribe(self)

    def __enter__(self) -> "Subscription":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def take(self, limit: Optional[int] = None) -> tuple[CoreEvent, ...]:
        """Pop and return up to ``limit`` buffered events (all if ``None``)."""
        if limit is None or limit >= len(self._pending):
            events = tuple(self._pending)
            self._pending.clear()
            return events
        return tuple(
            self._pending.popleft() for _ in range(max(0, limit))
        )

    def _deliver(self, events: Sequence[CoreEvent]) -> None:
        """Dispatch a commit's events through the filter, in order."""
        min_k = self._min_k
        callback = self._callback
        pending = self._pending
        for event in events:
            if not self._active:
                break  # the callback closed us mid-commit
            if min_k is not None and max(event.old_core, event.new_core) < min_k:
                continue
            if callback is not None:
                callback(event)
                continue
            if len(pending) == pending.maxlen:
                self.dropped_events += 1  # the append below drops the oldest
            pending.append(event)


def events_from_deltas(
    deltas, new_cores, receipt_id: int
) -> tuple[CoreEvent, ...]:
    """Build a commit's ordered event tuple from net core deltas.

    ``deltas`` maps vertex -> net change (zeros never appear — engines
    drop them), ``new_cores`` the same vertices' post-commit core
    numbers (captured at commit time, so the events stay correct however
    the graph evolves afterwards).  Events are ordered by
    :func:`~repro.engine.batch.vertex_sort_key`, so one commit always
    yields the same sequence regardless of engine schedule.
    """
    return tuple(
        CoreEvent(v, new_cores[v] - delta, new_cores[v], receipt_id)
        for v, delta in sorted(
            deltas.items(), key=lambda item: vertex_sort_key(item[0])
        )
    )
