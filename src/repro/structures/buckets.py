"""Bucketed degree queues for the staged k-order peels.

``CoreDecomp`` (Algorithm 1 of the paper) peels vertices whose remaining
degree is below the current ``k``.  The ``"small"`` policy runs as a
FIFO bucket queue over int ids
(:func:`repro.core.decomposition.dense_peel`); the ``"large"`` and
``"random"`` policies of Fig. 9 pick among *all* removable vertices at a
stage, so they keep vertices bucketed by their current degree here.

:class:`DegreeBuckets` supports ``decrease``, removal, and extraction of
the maximum or a random vertex among those whose degree is below a bound
(random sampling is what the "random deg+ first" k-order heuristic
needs).  Its buckets are plain lists with a position map; a removal
swaps the bucket's tail into the freed slot.
"""

from __future__ import annotations

import random
from typing import Hashable, Optional


class DegreeBuckets:
    """Vertices bucketed by current degree.

    Supports the two staged peeling policies:

    * ``pop_max_below(bound)`` — largest-degree vertex with degree < bound
      ("large deg+ first");
    * ``pop_random_below(bound, rng)`` — uniform vertex with degree < bound
      ("random deg+ first").

    ``decrease(v)`` moves a vertex one bucket down.

    Each bucket is a plain list, with one map from vertex to its slot in
    its bucket: removal swaps the bucket's tail into the freed slot and
    pops take the tail (no object and method calls per bucket, which
    cost more than the peel).
    """

    def __init__(self, degrees: dict[Hashable, int]) -> None:
        self._degree: dict[Hashable, int] = dict(degrees)
        max_deg = max(self._degree.values(), default=0)
        self._buckets: list[list[Hashable]] = [[] for _ in range(max_deg + 1)]
        self._slot: dict[Hashable, int] = {}
        for vertex, degree in self._degree.items():
            if degree < 0:
                raise ValueError(f"negative degree for {vertex!r}")
            self._put(vertex, degree)

    def __len__(self) -> int:
        return len(self._degree)

    def __bool__(self) -> bool:
        return bool(self._degree)

    def __contains__(self, vertex: Hashable) -> bool:
        return vertex in self._degree

    def _put(self, vertex: Hashable, degree: int) -> None:
        bucket = self._buckets[degree]
        self._slot[vertex] = len(bucket)
        bucket.append(vertex)

    def _take(self, vertex: Hashable, degree: int) -> None:
        bucket = self._buckets[degree]
        slot = self._slot.pop(vertex)
        tail = bucket.pop()
        if slot < len(bucket):
            bucket[slot] = tail
            self._slot[tail] = slot

    def _pop_tail(self, degree: int) -> Hashable:
        vertex = self._buckets[degree].pop()
        del self._slot[vertex]
        del self._degree[vertex]
        return vertex

    def decrease(self, vertex: Hashable) -> int:
        """Decrement the degree of ``vertex`` by one; returns the new degree."""
        degree = self._degree[vertex]
        if degree == 0:
            raise ValueError(f"degree of {vertex!r} already 0")
        self._take(vertex, degree)
        degree -= 1
        self._degree[vertex] = degree
        self._put(vertex, degree)
        return degree

    def remove(self, vertex: Hashable) -> int:
        """Remove ``vertex``; returns the degree it had."""
        degree = self._degree.pop(vertex)
        self._take(vertex, degree)
        return degree

    def pop_max_below(self, bound: int) -> Optional[tuple[Hashable, int]]:
        """Remove the largest-degree vertex with degree < ``bound``.

        Returns ``None`` when no vertex qualifies.  Linear scan downwards
        from ``bound - 1``; the peeling loops call this with slowly growing
        ``bound`` so the scan cost is amortized over the whole peel.
        """
        top = min(bound - 1, len(self._buckets) - 1)
        for degree in range(top, -1, -1):
            if self._buckets[degree]:
                return self._pop_tail(degree), degree
        return None

    def pop_random_below(
        self, bound: int, rng: random.Random
    ) -> Optional[tuple[Hashable, int]]:
        """Remove a uniformly random vertex among those with degree < ``bound``.

        Uniformity is over the union of qualifying buckets, achieved by
        weighting each non-empty bucket by its size.
        """
        top = min(bound - 1, len(self._buckets) - 1)
        total = 0
        non_empty: list[int] = []
        for degree in range(0, top + 1):
            if self._buckets[degree]:
                non_empty.append(degree)
                total += len(self._buckets[degree])
        if total == 0:
            return None
        pick = rng.randrange(total)
        for degree in non_empty:
            bucket = self._buckets[degree]
            if pick < len(bucket):
                vertex = bucket[pick]
                self._take(vertex, degree)
                del self._degree[vertex]
                return vertex, degree
            pick -= len(bucket)
        raise AssertionError("unreachable")  # pragma: no cover
