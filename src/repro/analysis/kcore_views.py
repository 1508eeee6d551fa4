"""Reads over a core decomposition: k-core views and aggregates.

The paper's motivating applications (community search, densest
subgraphs, visualization) consume core numbers through reads like
these.  :class:`repro.service.CoreService` answers every query through
this module, so reads never reach into maintainer internals.

The aggregate reads :func:`top_cores`, :func:`core_spectrum` and
:func:`degeneracy` take either a plain core mapping, which they scan, or
a :class:`CoreIndex`, which answers them as lookups: the paper maintains
core numbers so that a read never recomputes the decomposition, and the
index does the same for the reads.  An index owns a copy of the core
map and takes each acked commit through :meth:`CoreIndex.fold`, so no
read touches an engine; the service and every read replica each keep
one.  The scan over a plain mapping is the oracle the index is tested
against.  :class:`KCoreView` (``kcore``) stays a live scan.
"""

from __future__ import annotations

import heapq
import itertools
from collections import Counter
from typing import Hashable, Iterable, Iterator, Mapping, Optional, Union

from repro.engine.batch import BatchOp, vertex_sort_key
from repro.graphs.undirected import DynamicGraph

Vertex = Hashable


class KCoreView:
    """A lazy, *live* membership view of one ``k``-core.

    Wraps a core-number mapping (typically a :class:`CoreIndex`'s
    ``core``) without copying it: membership tests are O(1) lookups,
    iteration and ``len`` scan on demand, and the view always reflects
    the mapping's **current** state — commit an update and the same view
    answers for the new cores.  Call :meth:`vertices` to pin a frozen
    set, or :meth:`subgraph` for the induced graph.
    """

    __slots__ = ("_core", "_k", "_graph")

    def __init__(
        self,
        core: Mapping[Vertex, int],
        k: int,
        graph: Optional[DynamicGraph] = None,
    ) -> None:
        self._core = core
        self._k = k
        self._graph = graph

    @property
    def k(self) -> int:
        """The view's core level."""
        return self._k

    def __contains__(self, vertex: object) -> bool:
        c = self._core.get(vertex)
        return c is not None and c >= self._k

    def __iter__(self) -> Iterator[Vertex]:
        k = self._k
        return (v for v, c in self._core.items() if c >= k)

    def __len__(self) -> int:
        k = self._k
        return sum(1 for c in self._core.values() if c >= k)

    def __bool__(self) -> bool:
        return any(True for _ in self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"KCoreView(k={self._k}, size={len(self)})"

    def vertices(self) -> set[Vertex]:
        """Materialize the current membership as a frozen-in-time set."""
        return set(self)

    def subgraph(self) -> DynamicGraph:
        """The ``k``-core as an induced subgraph of the view's graph."""
        if self._graph is None:
            raise ValueError(
                "this KCoreView was built without a graph; build it as "
                "KCoreView(core, k, graph) or read CoreService.kcore(k)"
            )
        return self._graph.subgraph(self.vertices())


#: Slack on the compaction threshold: a level's heap is compacted once it
#: holds more than ``2 * count + COMPACT_SLACK`` entries.
COMPACT_SLACK = 8


class CoreIndex:
    """A read index that owns a core map: per-level counts and tie order.

    The constructor copies the mapping it is given; after that the map
    moves only through :meth:`fold`, which takes one acked commit's
    batch and net deltas.  From those the index keeps

    * a count per level ``k >= 1``, so :func:`core_spectrum` and
      :func:`degeneracy` cost O(levels).  The level-0 count is
      ``len(core)`` minus the others, so a vertex that first appears at
      core 0 needs no delta;
    * per level, a min-heap of ``(type name, repr, tiebreak, vertex)``
      entries — the :func:`~repro.engine.batch.vertex_sort_key` order,
      with a counter so that two vertices are never compared directly —
      so :func:`top_cores` costs O(n log S) outside level 0.  Deletion
      is lazy: a vertex that leaves a level keeps its entry until a read
      pops it, or until the heap holds more than about twice as many
      entries as its level has vertices and is compacted.

    Both are built on the first read that needs them, so a commit
    stream that never reads pays only the map updates in :meth:`fold`.

    Reach the answers through :func:`top_cores`, :func:`core_spectrum`
    and :func:`degeneracy`, which dispatch here:

    >>> from repro.engine.batch import Batch
    >>> index = CoreIndex({"a": 2, "b": 2, "c": 1, "d": 0})
    >>> top_cores(index, 3)
    [('a', 2), ('b', 2), ('c', 1)]
    >>> index.fold(Batch().insert("c", "e"), {"c": 2})
    >>> top_cores(index, 2), degeneracy(index)
    ([('c', 3), ('a', 2)], 3)
    >>> core_spectrum(index)
    {0: 2, 2: 2, 3: 1}

    Ties between distinct vertices with the same type name and ``repr``
    fall to the order the index saw them in, where the scan keeps the
    mapping's order; vertices that cross the wire never tie.
    """

    __slots__ = ("core", "_counts", "_heaps", "_tiebreak")

    def __init__(self, core: Mapping[Vertex, int]) -> None:
        #: The index's own core map; read it, move it through :meth:`fold`.
        self.core: dict[Vertex, int] = dict(core)
        self._tiebreak = itertools.count()
        self._counts: Optional[dict[int, int]] = None
        self._heaps: dict[int, list] = {}

    def fold(self, batch: Iterable[BatchOp],
             deltas: Mapping[Vertex, int]) -> None:
        """Bring the index up to one acked commit of ``batch``.

        The batch's endpoints enter the map at core 0 — an edge inserted
        and removed in one batch moves no core, yet leaves both vertices
        in the graph — then the commit's net ``vertex -> delta`` changes
        fold into the map.  Only levels already built are touched; a
        level that was empty starts a heap of its arrivals, since they
        are all of its members.
        """
        core = self.core
        for op in batch:
            u, v = op.edge
            if u not in core:
                core[u] = 0
            if v not in core:
                core[v] = 0
        counts, heaps = self._counts, self._heaps
        for vertex, delta in deltas.items():
            old = core[vertex]
            new = core[vertex] = old + delta
            if counts is None:
                continue
            if old:
                left = counts[old] - 1
                if left:
                    counts[old] = left
                else:
                    del counts[old]
                    heaps.pop(old, None)
            if not new:
                continue
            if new in counts:
                counts[new] += 1
                heap = heaps.get(new)
                if heap is None:
                    continue
            else:
                counts[new] = 1
                heap = heaps[new] = []
            heapq.heappush(heap, self._entry(vertex))
            if len(heap) > 2 * counts[new] + COMPACT_SLACK:
                heaps[new] = self._live(new, heap)
                heapq.heapify(heaps[new])

    def _top(self, n: int) -> list[tuple[Vertex, int]]:
        """:func:`top_cores` over :attr:`core`."""
        if n <= 0:
            return []
        counts = self._level_counts()
        out: list[tuple[Vertex, int]] = []
        for k in sorted(counts, reverse=True):
            take = min(counts[k], n - len(out))
            out += [(v, k) for v in self._first(k, take)]
            if len(out) == n:
                return out
        zeros = (v for v, c in self.core.items() if c == 0)
        out += [
            (v, 0)
            for v in heapq.nsmallest(n - len(out), zeros, key=vertex_sort_key)
        ]
        return out

    def _spectrum(self) -> dict[int, int]:
        """:func:`core_spectrum` over :attr:`core`, levels ascending."""
        counts = self._level_counts()
        spectrum = {k: counts[k] for k in sorted(counts)}
        zeros = len(self.core) - sum(spectrum.values())
        return {0: zeros, **spectrum} if zeros else spectrum

    def _degeneracy(self) -> int:
        """:func:`degeneracy` over :attr:`core`."""
        return max(self._level_counts(), default=0)

    def _level_counts(self) -> dict[int, int]:
        if self._counts is None:
            counts = dict(Counter(self.core.values()))
            counts.pop(0, None)
            self._counts = counts
        return self._counts

    def _entry(self, vertex: Vertex) -> tuple:
        return (type(vertex).__name__, repr(vertex), next(self._tiebreak),
                vertex)

    def _live(self, k: int, entries) -> list:
        """The entries of vertices now at level ``k``, one per vertex."""
        core, seen, live = self.core, set(), []
        for entry in entries:
            vertex = entry[3]
            if vertex not in seen and core.get(vertex) == k:
                seen.add(vertex)
                live.append(entry)
        return live

    def _first(self, k: int, m: int) -> list[Vertex]:
        """The first ``m`` members of level ``k`` in tie order."""
        heap = self._heaps.get(k)
        if heap is None:
            heap = [self._entry(v) for v, c in self.core.items() if c == k]
            heapq.heapify(heap)
            self._heaps[k] = heap
        core, seen, found = self.core, set(), []
        # Pop until m live entries surface; stale and duplicate entries
        # are dropped for good, the live ones go back.
        while len(found) < m and heap:
            entry = heapq.heappop(heap)
            vertex = entry[3]
            if vertex not in seen and core.get(vertex) == k:
                seen.add(vertex)
                found.append(entry)
        for entry in found:
            heapq.heappush(heap, entry)
        return [entry[3] for entry in found]


#: What the aggregate reads accept: a core mapping (scanned) or an index.
Cores = Union[Mapping[Vertex, int], CoreIndex]


def top_cores(core: Cores, n: int) -> list[tuple[Vertex, int]]:
    """The ``n`` vertices with the highest core numbers.

    Returns ``(vertex, core)`` pairs in descending core order; ties are
    broken by the stable :func:`~repro.engine.batch.vertex_sort_key`, so
    the answer is deterministic for any vertex types.  Over a
    :class:`CoreIndex` this is a lookup; over a mapping, a heap
    selection (``O(N log n)``).
    """
    if isinstance(core, CoreIndex):
        return core._top(n)
    if n <= 0:
        return []
    return heapq.nsmallest(
        n, core.items(), key=lambda item: (-item[1], vertex_sort_key(item[0]))
    )


def degeneracy(core: Cores) -> int:
    """Maximum core number (0 for an empty graph)."""
    if isinstance(core, CoreIndex):
        return core._degeneracy()
    return max(core.values(), default=0)


def core_spectrum(core: Cores) -> dict[int, int]:
    """Map ``k -> |k-shell|`` for every non-empty shell."""
    if isinstance(core, CoreIndex):
        return core._spectrum()
    spectrum: dict[int, int] = {}
    for c in core.values():
        spectrum[c] = spectrum.get(c, 0) + 1
    return spectrum
