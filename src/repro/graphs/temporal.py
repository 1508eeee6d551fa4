"""Timestamped edge streams.

The paper's temporal datasets (Facebook, Youtube, DBLP) carry edge
timestamps; the insertion workload replays the *latest* 100,000 edges in
timestamp order.  :class:`TemporalEdgeStream` models exactly that: an edge
sequence sorted by timestamp with cheap suffix/prefix slicing.

:class:`ExpiryQueue` is the sliding-window expiry rule shared by the live
monitor (:class:`repro.streaming.SlidingWindowCoreMonitor`) and the trace
adapter (:func:`repro.scenarios.loaders.scenario_from_stream`).
"""

from __future__ import annotations

import collections
import math
from typing import Hashable, Iterable, Iterator, Optional

from repro.errors import WorkloadError
from repro.graphs.undirected import DynamicGraph

Edge = tuple[int, int]
TimedEdge = tuple[int, int, float]


class TemporalEdgeStream:
    """An edge sequence ordered by timestamp.

    Raises :class:`~repro.errors.WorkloadError` on a NaN timestamp: it
    compares false with every time, so it has no place in the order.
    """

    def __init__(self, timed_edges: Iterable[TimedEdge]) -> None:
        self._edges: list[TimedEdge] = list(timed_edges)
        for u, v, t in self._edges:
            if math.isnan(t):
                raise WorkloadError(f"edge ({u}, {v}) has a NaN timestamp")
        for earlier, later in zip(self._edges, self._edges[1:]):
            if earlier[2] > later[2]:
                self._edges.sort(key=lambda e: e[2])
                break

    @classmethod
    def from_edges(cls, edges: Iterable[Edge]) -> "TemporalEdgeStream":
        """Wrap plain edges; position in the sequence becomes the timestamp."""
        return cls((u, v, float(t)) for t, (u, v) in enumerate(edges))

    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._edges)

    def __iter__(self) -> Iterator[TimedEdge]:
        return iter(self._edges)

    def __getitem__(self, index: int) -> TimedEdge:
        return self._edges[index]

    def edges(self) -> list[Edge]:
        """All edges (timestamps dropped), oldest first."""
        return [(u, v) for u, v, _ in self._edges]

    def latest(self, k: int) -> list[Edge]:
        """The ``k`` most recent edges, oldest-of-the-k first.

        This is the paper's workload for the temporal graphs: "select the
        latest 100,000 edges".
        """
        if k < 0 or k > len(self._edges):
            raise WorkloadError(
                f"cannot take latest {k} of {len(self._edges)} edges"
            )
        return [(u, v) for u, v, _ in self._edges[len(self._edges) - k :]]

    def ticks(
        self,
        every: Optional[float] = None,
        *,
        count: Optional[int] = None,
    ) -> Iterator[tuple[float, list[Edge]]]:
        """Group the stream into arrival *ticks* for batched replay.

        Yields ``(t, edges)`` pairs in time order, where every edge of one
        tick shares the tick's bucket — the unit
        :meth:`repro.streaming.SlidingWindowCoreMonitor.observe_many`
        consumes, so all of a tick's arrivals land on the engine as one
        batch.  The two grouping knobs are mutually exclusive:

        ``every=None`` (and no ``count``)
            A tick is a maximal run of *identical* timestamps (the
            dataset's own granularity).
        ``every > 0``
            Timestamps are bucketed into width-``every`` windows by
            absolute value (``t // every``) — the knob for stand-in
            datasets whose timestamps are dense event indices.  Each
            tick reports the *latest* timestamp it contains.
        ``count >= 1``
            Count-based ticks of exactly ``count`` edges each (the last
            may be shorter), stamped with the latest timestamp they
            contain; stamps are non-decreasing but may repeat when a
            timestamp run spans groups.

        Apart from ``count`` grouping, consecutive tick timestamps are
        strictly increasing and can be fed to a time-ordered consumer
        directly.
        """
        if every is not None and count is not None:
            raise WorkloadError("pass at most one of every=, count=")
        if count is not None:
            if count < 1:
                raise WorkloadError(
                    f"tick count must be >= 1, got {count}"
                )
            for start in range(0, len(self._edges), count):
                group = self._edges[start : start + count]
                yield group[-1][2], [(u, v) for u, v, _ in group]
            return
        if every is not None and every <= 0:
            raise WorkloadError(f"tick width must be positive, got {every}")
        pending_key: Optional[float] = None
        pending_t = 0.0
        pending: list[Edge] = []
        for u, v, t in self._edges:
            key = t if every is None else t // every
            if pending and key != pending_key:
                yield pending_t, pending
                pending = []
            pending_key = key
            pending_t = t
            pending.append((u, v))
        if pending:
            yield pending_t, pending

    def split_at(self, index: int) -> tuple[list[Edge], list[Edge]]:
        """Split into (history, future) at ``index``."""
        if index < 0 or index > len(self._edges):
            raise WorkloadError(f"split index {index} out of range")
        history = [(u, v) for u, v, _ in self._edges[:index]]
        future = [(u, v) for u, v, _ in self._edges[index:]]
        return history, future

    def graph(self) -> DynamicGraph:
        """Materialize the full stream as a graph."""
        return DynamicGraph.from_edges((u, v) for u, v, _ in self._edges)

    def graph_before(self, index: int) -> DynamicGraph:
        """Graph of the first ``index`` edges; vertices of later edges are
        included as isolated vertices so maintainers know about them."""
        history, future = self.split_at(index)
        g = DynamicGraph.from_edges(history)
        for u, v in future:
            g.add_vertex(u)
            g.add_vertex(v)
        return g


class ExpiryQueue:
    """Live edges of a sliding window, each expiring ``window`` after its
    latest arrival.

    Arrivals must come in non-decreasing time order.  A re-arrival of a
    live edge refreshes its expiry: the edge's old queue entry stays
    behind and is skipped when it comes due, so every operation is
    amortized O(1).  ``window`` must be positive (NaN is refused too:
    nothing would ever expire); :class:`~repro.errors.WorkloadError`
    otherwise.

    >>> window = ExpiryQueue(10)
    >>> window.arrive((1, 2), 0)
    True
    >>> window.arrive((1, 2), 5)  # re-arrival: refreshed, not new
    False
    >>> window.expire(10)  # the entry queued at t=0 is stale
    []
    >>> window.expire(15), len(window)
    ([(1, 2)], 0)
    """

    def __init__(self, window: float) -> None:
        if not window > 0:  # also false for NaN
            raise WorkloadError(f"window must be positive, got {window}")
        self.window = window
        #: live edge -> expiry time
        self._expiry: dict[Hashable, float] = {}
        #: (expiry time, edge) in arrival order; stale entries skipped
        self._queue: collections.deque = collections.deque()

    def __len__(self) -> int:
        return len(self._expiry)

    def arrive(self, edge: Hashable, t: float) -> bool:
        """Record an arrival of ``edge`` at ``t``; ``True`` when it was
        not live (a fresh edge), ``False`` for a refresh."""
        fresh = edge not in self._expiry
        due = t + self.window
        self._expiry[edge] = due
        self._queue.append((due, edge))
        return fresh

    def expire(self, t: float) -> list:
        """Remove and return every live edge due by ``t``, oldest first."""
        due: list = []
        queue, expiry = self._queue, self._expiry
        while queue and queue[0][0] <= t:
            at, edge = queue.popleft()
            if expiry.get(edge) == at:
                del expiry[edge]
                due.append(edge)
        return due

    def last_due(self, default: float) -> float:
        """The latest expiry time still queued (``default`` when empty)."""
        return self._queue[-1][0] if self._queue else default
