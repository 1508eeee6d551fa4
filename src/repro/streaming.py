"""Sliding-window core monitoring over timestamped edge streams.

The paper motivates core maintenance with continuously evolving graphs;
the canonical deployment shape is a **sliding window**: an edge is live
for ``window`` time units after it arrives, then expires.  Every arrival
is an insertion, every expiry a removal — precisely the mixed workload of
Fig. 12, driven by time instead of probability.

:class:`SlidingWindowCoreMonitor` is a *driver* over the service façade
(:class:`repro.service.CoreService` — the one public entry point): each
tick's arrivals and expiries commit as one service transaction, and the
monitor's promotion/demotion statistics are a plain event **subscriber**
on the service's core-event stream — the same
:meth:`~repro.service.CoreService.subscribe` hook any application can
use.  Feed batched ticks with :meth:`SlidingWindowCoreMonitor.observe_many`
(see :meth:`repro.graphs.temporal.TemporalEdgeStream.ticks` for grouping
a stream at its natural tick granularity).  Duplicate arrivals of a live
edge refresh its expiry instead of inserting twice (multigraphs are out
of k-core scope).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Hashable, Iterable, Optional

from repro.engine.registry import DEFAULT_ENGINE
from repro.engine.batch import Batch, normalize_edge
from repro.errors import WorkloadError
from repro.graphs.temporal import ExpiryQueue
from repro.service import CoreEvent, CoreService

Vertex = Hashable


@dataclass
class WindowStats:
    """Counters accumulated over a monitor's lifetime."""

    arrivals: int = 0
    refreshes: int = 0
    expiries: int = 0
    promotions: int = 0
    demotions: int = 0
    degeneracy_timeline: list[tuple[float, int]] = field(default_factory=list)


class SlidingWindowCoreMonitor:
    """Maintain core numbers of the last ``window`` time units of edges.

    Parameters
    ----------
    window:
        Lifetime of an edge after its (re-)arrival.
    engine:
        Registry name of the maintenance engine (default
        :data:`~repro.engine.registry.DEFAULT_ENGINE`).
    service:
        An already-open :class:`~repro.service.CoreService` to drive
        instead of opening one (its graph must still be edgeless — the
        window starts empty).  Mutually exclusive with ``engine``.

    Events must be fed in non-decreasing timestamp order via
    :meth:`observe` / :meth:`observe_many`; :meth:`advance_to` expires
    edges without an arrival.  The promotion/demotion stats are driven
    by a service subscription, so they stay exact under any engine and
    batch schedule.
    """

    def __init__(
        self,
        window: float,
        engine: str = DEFAULT_ENGINE,
        service: Optional[CoreService] = None,
    ) -> None:
        self._live = ExpiryQueue(window)  # validates window first
        self.window = window
        if service is None:
            service = CoreService.open(engine=engine)
        elif engine != DEFAULT_ENGINE:
            # An adopted service already has its engine; silently
            # ignoring the name here would hide a misconfiguration.
            raise WorkloadError("pass either service= or engine=, not both")
        elif service.graph.m:
            raise WorkloadError(
                "the window starts empty: the adopted service already "
                f"holds {service.graph.m} edges"
            )
        self._service = service
        self._subscription = service.subscribe(self._count_event)
        self._now = float("-inf")
        self.stats = WindowStats()

    # ------------------------------------------------------------------

    @property
    def now(self) -> float:
        """Timestamp of the most recent event."""
        return self._now

    @property
    def service(self) -> CoreService:
        """The underlying service session (subscribe, query, save)."""
        return self._service

    def live_edges(self) -> int:
        """Number of edges currently inside the window."""
        return len(self._live)

    def core_of(self, vertex: Vertex) -> int:
        """Current core number (0 for unseen vertices)."""
        return self._service.core(vertex, 0)

    def k_core(self, k: int) -> set[Vertex]:
        """Vertices currently in the ``k``-core of the window graph."""
        return self._service.kcore(k).vertices()

    def degeneracy(self) -> int:
        """Current maximum core number."""
        return self._service.degeneracy()

    def _count_event(self, event: CoreEvent) -> None:
        """The stats subscriber: fold each commit's net core deltas in."""
        if event.new_core > event.old_core:
            self.stats.promotions += event.new_core - event.old_core
        else:
            self.stats.demotions += event.old_core - event.new_core

    # ------------------------------------------------------------------

    def observe(self, u: Vertex, v: Vertex, t: float) -> None:
        """Feed one edge arrival at time ``t`` (non-decreasing).

        Expires due edges first, then inserts (or refreshes) ``(u, v)``.
        """
        self.observe_many([(u, v)], t)

    def observe_many(self, pairs: Iterable[tuple[Vertex, Vertex]], t: float) -> None:
        """Feed several arrivals sharing timestamp ``t`` as one batch.

        Expiry of due edges and insertion of the genuinely new arrivals
        each commit through one service transaction — one engine batch
        per tick, however many edges arrive.  ``t`` is checked by
        :meth:`advance_to` before any state changes.
        """
        if t < self._now:
            raise WorkloadError(
                f"events must be time-ordered: {t} after {self._now}"
            )
        self.advance_to(t)
        # Normalize (and thereby validate) every pair before committing
        # any monitor state: a bad pair mid-list must not leave edges
        # queued for expiry that the engine never saw.
        edges = [normalize_edge(u, v) for u, v in pairs]
        fresh = [edge for edge in edges if self._live.arrive(edge, t)]
        self.stats.refreshes += len(edges) - len(fresh)
        if fresh:
            self._service.apply(Batch.inserts(fresh))
            self.stats.arrivals += len(fresh)
        self.stats.degeneracy_timeline.append((t, self.degeneracy()))

    def advance_to(self, t: float) -> int:
        """Expire every edge whose lifetime ended by time ``t``.

        All due edges leave the engine as one removal commit.  Returns
        the number of edges removed.
        """
        if math.isnan(t):
            raise WorkloadError("timestamp must not be NaN")
        if t < self._now:
            raise WorkloadError(
                f"cannot rewind time from {self._now} to {t}"
            )
        self._now = t
        due = self._live.expire(t)
        if due:
            self._service.apply(Batch.removes(due))
            self.stats.expiries += len(due)
        return len(due)

    def drain(self) -> int:
        """Expire everything (end of stream); returns edges removed."""
        return self.advance_to(self._live.last_due(self._now))
