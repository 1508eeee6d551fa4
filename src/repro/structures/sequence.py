"""The order-maintenance list behind every k-order block.

The paper's speed argument rests on O(1) order tests inside a block
``O_k``.  This module provides them:

* :class:`TaggedOrderList` — an order-maintenance (OM) list in the
  Dietz–Sleator style: a doubly-linked list whose nodes carry integer
  labels strictly increasing along the list, so ``precedes`` is a single
  integer comparison.  Inserting between two nodes bisects the label gap;
  when a gap is exhausted, a Bender-style *range relabeling* redistributes
  the labels of the smallest enclosing sparse-enough aligned label range.
  Queries are worst-case O(1); insertions and deletions are O(1) except
  for relabelings, whose amortized cost is logarithmic in the list size
  (the classic O(1)-amortized bound needs a second indirection level,
  which our workloads have not justified — the ``relabels`` counter
  tells).  Prepends — whole ``OrderInsert`` chains included — land at
  the fast path's fixed spacing below the first node, so they are
  amortized O(1): one whole-list spread per ~2^27 single prepends on a
  30k-item list.  An insert that even a whole-list spread cannot make
  room for raises :class:`OverflowError` without changing the list.
* :class:`SequenceStats` — shared instrumentation: ``order_queries``
  (order tests answered) and ``relabels`` (OM relabeling events).

:class:`repro.core.korder.KOrder` keeps one list per block.  Order keys
are the list nodes themselves (see ``order_key``), comparing by their
*current* label: a relabeling rewrites labels in place, so keys held by
a pending min-heap keep comparing correctly — the relative order of any
two stored items never changes while both stay stored, which is exactly
the invariant ``OrderInsert``'s jump heap relies on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Hashable, Iterable, Iterator, Optional


@dataclass
class SequenceStats:
    """Operation counters shared by every block of one k-order index.

    Attributes
    ----------
    order_queries:
        Order tests answered: ``precedes`` calls plus ``order_key``
        token grants.  (Comparisons *between* granted tokens are not
        counted — token compares are plain integer/label comparisons.)
    relabels:
        OM-list relabeling events (label-range redistributions).
    """

    order_queries: int = 0
    relabels: int = 0

    def as_dict(self) -> dict[str, int]:
        """Counters as a plain dict (for ``BatchResult``/bench reporting)."""
        return {
            "order_queries": self.order_queries,
            "relabels": self.relabels,
        }

    def reset(self) -> None:
        """Zero all counters."""
        self.order_queries = 0
        self.relabels = 0


class _ListNode:
    """One OM-list node: the item plus its integer order label.

    Nodes double as the list's *live order keys* (what
    :meth:`TaggedOrderList.order_key` returns): they compare by their
    current label, and relabeling rewrites labels in place without
    reordering items, so a node held as a heap key keeps comparing
    correctly across relabelings.  Equality stays identity — one stored
    item, one node — which is what lazy heaps use to recognize re-pushes.
    """

    __slots__ = ("item", "label", "prev", "next")

    def __init__(self, item: Hashable, label: int) -> None:
        self.item = item
        self.label = label
        self.prev: Optional[_ListNode] = None
        self.next: Optional[_ListNode] = None

    def __lt__(self, other: "_ListNode") -> bool:
        return self.label < other.label

    def __le__(self, other: "_ListNode") -> bool:
        return self.label <= other.label

    def __gt__(self, other: "_ListNode") -> bool:
        return self.label > other.label

    def __ge__(self, other: "_ListNode") -> bool:
        return self.label >= other.label

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"_ListNode({self.item!r}, label={self.label})"


class TaggedOrderList:
    """Dietz–Sleator tagged order-maintenance list with Bender relabeling.

    A doubly-linked list between two sentinels labeled ``0`` and
    ``_SPAN``; stored nodes carry strictly increasing integer labels in
    between.  ``precedes`` is one integer comparison; insertion bisects
    the neighboring label gap (with wide fast-path gaps for appends and
    prepends, which whole :meth:`extend_back` runs and
    :meth:`extend_front` chains share) and, when a gap is exhausted,
    relabels the smallest enclosing label-aligned range whose density
    is below the level's threshold — Bender et al.'s simplified
    tag-management policy.

    Parameters
    ----------
    items:
        Optional iterable appended in order.
    stats:
        Shared :class:`SequenceStats`; a private one is created when
        omitted.
    """

    #: Exclusive upper bound of the label space (tail sentinel's label).
    _SPAN = 1 << 62
    #: Fast-path spacing for appends/prepends: leaves room for ~20
    #: same-gap bisections before any relabeling happens.
    _GAP = 1 << 20

    def __init__(
        self,
        items: Iterable[Hashable] = (),
        stats: Optional[SequenceStats] = None,
    ) -> None:
        self.stats = stats if stats is not None else SequenceStats()
        self._head = _ListNode(None, 0)
        self._tail = _ListNode(None, self._SPAN)
        self._head.next = self._tail
        self._tail.prev = self._head
        self._nodes: dict[Hashable, _ListNode] = {}
        self.extend_back(items)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._nodes)

    def __bool__(self) -> bool:
        return bool(self._nodes)

    def __contains__(self, item: Hashable) -> bool:
        return item in self._nodes

    def __iter__(self) -> Iterator[Hashable]:
        node = self._head.next
        while node is not self._tail:
            yield node.item
            node = node.next

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TaggedOrderList({list(self)!r})"

    def to_list(self) -> list[Any]:
        """The stored sequence as a plain list (left to right)."""
        return list(self)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def precedes(self, a: Hashable, b: Hashable) -> bool:
        """``True`` iff ``a`` appears strictly before ``b`` — one integer
        comparison, the O(1) query the paper's cost model assumes."""
        self.stats.order_queries += 1
        return self._nodes[a].label < self._nodes[b].label

    def order_key(self, item: Hashable) -> _ListNode:
        """The item's node as a live comparable token — O(1) to produce
        and to compare, and immune to relabeling (see :class:`_ListNode`)."""
        self.stats.order_queries += 1
        return self._nodes[item]

    def rank(self, item: Hashable) -> int:
        """0-based position of ``item`` — O(position) list walk.

        Diagnostic only (audits, tests); the engine hot paths never call
        it.  Raises :class:`KeyError` on absent items.
        """
        target = self._nodes[item]
        r = 0
        node = self._head.next
        while node is not target:
            r += 1
            node = node.next
        return r

    def successor(self, item: Hashable) -> Optional[Any]:
        """Item immediately after ``item``, or ``None`` if it is the last."""
        node = self._nodes[item].next
        return None if node is self._tail else node.item

    def predecessor(self, item: Hashable) -> Optional[Any]:
        """Item immediately before ``item``, or ``None`` if it is the first."""
        node = self._nodes[item].prev
        return None if node is self._head else node.item

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------

    def insert_front(self, item: Hashable) -> None:
        """Insert ``item`` as the new first element."""
        self._insert_between(self._head, self._head.next, item)

    def insert_back(self, item: Hashable) -> None:
        """Insert ``item`` as the new last element."""
        self._insert_between(self._tail.prev, self._tail, item)

    def insert_after(self, anchor_item: Hashable, item: Hashable) -> None:
        """Insert ``item`` immediately after ``anchor_item``.

        Raises :class:`KeyError` if the anchor is absent.
        """
        anchor = self._nodes[anchor_item]
        self._insert_between(anchor, anchor.next, item)

    def extend_back(self, items: Iterable[Hashable]) -> None:
        """Append ``items`` in order with the labels, and any
        :class:`OverflowError`, of one :meth:`insert_back` per item: one
        pass at the append fast path's spacing while it has room below
        the tail, then item by item.  Raises :class:`ValueError`, changing
        nothing, on an item already stored or repeated in ``items``."""
        run = list(items)
        self._check_new(run)
        nodes, tail, gap = self._nodes, self._tail, self._GAP
        prev = tail.prev
        label = prev.label
        room = (self._SPAN - 1 - label) // gap
        for item in run[:room]:
            label += gap
            node = nodes[item] = _ListNode(item, label)
            node.prev = prev
            prev.next = node
            prev = node
        prev.next = tail
        tail.prev = prev
        for item in run[room:]:
            self.insert_back(item)

    def extend_front(self, items: Iterable[Hashable]) -> None:
        """Prepend several items so they appear in their given order.

        ``extend_front([a, b, c])`` on sequence ``[x]`` yields
        ``[a, b, c, x]`` — the ``OrderInsert`` ending-phase move.

        The whole chain is labeled in one pass, directly below the
        current first node at the prepend fast path's spacing
        ``min(_GAP, first.label // (L + 1))`` for a chain of length
        ``L``.  A chain therefore uses only the front room it needs:
        after one spread has opened the front gap, a 30k-item list takes
        ~2^27 single-item prepends before it needs another, so prepends
        cost amortized O(1).  Only when the front gap is shorter than
        the chain are the existing labels spread over the whole space
        once (one ``relabels`` event) before the chain lands.

        Raises :class:`ValueError` on an item already stored (or twice
        in the chain) and :class:`OverflowError` when the list would
        hold more than ``_SPAN // 2`` items, the most a whole-list spread
        leaves gaps of 2 between; neither error changes the list.
        """
        chain = list(items)
        if not chain:
            return
        self._check_new(chain)
        if len(self._nodes) + len(chain) > self._SPAN // 2:
            raise OverflowError(
                f"order list full: {len(self._nodes)} + {len(chain)} items "
                f"exceed {self._SPAN // 2}"
            )
        first = self._head.next
        if first.label <= len(chain):
            # Not enough label room in front: spread the existing labels
            # over the whole space once, instead of cascading per-item
            # relabels while the chain lands.
            self._spread()
        step = min(self._GAP, first.label // (len(chain) + 1))
        if step < 1:
            # Even the spread front gap is shorter than the chain, i.e.
            # (items + 1) * (chain + 1) exceeds the label space: insert
            # one at a time and let the range relabeling make room.
            self.insert_front(chain[0])
            for previous, item in zip(chain, chain[1:]):
                self.insert_after(previous, item)
            return
        prev = self._head
        label = first.label - (len(chain) + 1) * step
        for item in chain:
            label += step
            node = _ListNode(item, label)
            self._nodes[item] = node
            node.prev = prev
            prev.next = node
            prev = node
        prev.next = first
        first.prev = prev

    def move_after(self, anchor_item: Hashable, item: Hashable) -> None:
        """Relocate ``item`` to immediately after ``anchor_item``.

        Reuses ``item``'s node (and hence its identity as an
        :meth:`order_key` token): the node's label always reflects its
        *current* position, so tokens held elsewhere — e.g. stale lazy
        heap entries — keep comparing by live position instead of going
        stale, which a remove-then-reinsert (fresh node) would cause.
        """
        node = self._nodes[item]
        anchor = self._nodes[anchor_item]
        if anchor is node:
            raise ValueError(f"cannot move {item!r} after itself")
        node.prev.next = node.next
        node.next.prev = node.prev
        try:
            self._place(node, anchor, anchor.next)
        except OverflowError:
            # Nothing was relabeled: put the node back where it was.
            node.prev.next = node.next.prev = node
            raise

    def remove(self, item: Hashable) -> None:
        """Remove ``item`` from the sequence — O(1) unlink.

        Raises :class:`KeyError` if absent.
        """
        node = self._nodes.pop(item)
        node.prev.next = node.next
        node.next.prev = node.prev
        node.prev = node.next = None

    def clear(self) -> None:
        """Remove every item."""
        self._nodes.clear()
        self._head.next = self._tail
        self._tail.prev = self._head

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _check_new(self, run: list) -> None:
        """Raise :class:`ValueError` on an item stored or repeated in ``run``."""
        if len(set(run)) == len(run) and self._nodes.keys().isdisjoint(run):
            return
        seen: set = set()
        for item in run:
            if item in self._nodes or item in seen:
                raise ValueError(f"item {item!r} already stored in sequence")
            seen.add(item)

    def _insert_between(
        self, prev: _ListNode, nxt: _ListNode, item: Hashable
    ) -> None:
        if item in self._nodes:
            raise ValueError(f"item {item!r} already stored in sequence")
        node = _ListNode(item, 0)
        self._place(node, prev, nxt)
        self._nodes[item] = node

    def _place(self, node: _ListNode, prev: _ListNode, nxt: _ListNode) -> None:
        """Label and link an (unlinked) node between ``prev`` and ``nxt``."""
        if nxt.label - prev.label < 2:
            # Gap exhausted: redistribute labels around a *real* anchor
            # (sentinel labels are fixed).  Guaranteed to leave
            # ``nxt.label - prev.label >= 2`` or to raise OverflowError
            # before changing anything (see _relabel).
            self._relabel(prev if prev is not self._head else nxt)
        lo, hi = prev.label, nxt.label
        if nxt is self._tail and lo + self._GAP < hi:
            node.label = lo + self._GAP  # append fast path
        elif prev is self._head and hi - self._GAP > lo:
            node.label = hi - self._GAP  # prepend fast path
        else:
            node.label = lo + (hi - lo) // 2
        node.prev = prev
        node.next = nxt
        prev.next = node
        nxt.prev = node

    def _relabel(self, anchor: _ListNode) -> None:
        """Redistribute labels around ``anchor`` (Bender-style).

        Grows label-aligned candidate ranges of width ``2^i`` around the
        anchor until one is sparse enough — fewer than ``(4/3)^i`` nodes,
        the overflow-threshold density ``(2/T)^i`` with ``T = 3/2`` —
        *and* wide enough to give every node (and the triggering gap) a
        slack of at least 2.  Those nodes are then spread evenly over the
        range.  Every gap inside the relabeled range, and the gaps to the
        neighbors just outside it, end up >= 2, so the pending insertion
        always succeeds without cascading — or, when not even a
        whole-space spread leaves gaps of 2, raises :class:`OverflowError`
        with every label unchanged.
        """
        i = 1
        while True:
            width = 1 << i
            if width >= self._SPAN:
                # Degenerate fallback: spread everything over the whole
                # label space (unreachable until ~2^40 stored items).
                self._spread()
                return
            base = anchor.label - (anchor.label % width)
            first = anchor
            count = 1
            node = anchor.prev
            while node is not self._head and node.label >= base:
                first = node
                count += 1
                node = node.prev
            node = anchor.next
            while node is not self._tail and node.label < base + width:
                count += 1
                node = node.next
            if count <= 4**i // 3**i and width >= 2 * (count + 1):
                self.stats.relabels += 1
                step = width // (count + 1)
                label = base
                node = first
                for _ in range(count):
                    label += step
                    node.label = label
                    node = node.next
                return
            i += 1

    def _spread(self) -> None:
        """Redistribute every label evenly over the whole label space.

        One relabeling event (charged to ``stats.relabels``); leaves the
        front gap at ``_SPAN // (n + 1)``, which is what
        :meth:`extend_front` relies on to reserve chain-sized room.
        Raises :class:`OverflowError`, changing nothing, when the spread
        would leave gaps below 2 — a pending insertion could not fit.
        """
        nodes = list(self._iter_nodes())
        step = self._SPAN // (len(nodes) + 1)
        if step < 2:
            raise OverflowError(
                f"order list full: {len(nodes)} items leave no label room"
            )
        self.stats.relabels += 1
        label = 0
        for node in nodes:
            label += step
            node.label = label

    def _iter_nodes(self) -> Iterator[_ListNode]:
        node = self._head.next
        while node is not self._tail:
            yield node
            node = node.next

    def check_invariants(self) -> None:
        """Audit links, labels, and the node map.

        Used by the test-suite; raises :class:`AssertionError` on
        violation.
        """
        count = 0
        node = self._head.next
        label = self._head.label
        if self._head.label != 0 or self._tail.label != self._SPAN:
            raise AssertionError("sentinel labels corrupted")
        while node is not self._tail:
            count += 1
            if node.label <= label:
                raise AssertionError(
                    f"labels not strictly increasing at {node.item!r}"
                )
            if node.label >= self._SPAN:
                raise AssertionError(f"label out of range at {node.item!r}")
            if node.next.prev is not node or node.prev.next is not node:
                raise AssertionError(f"broken links at {node.item!r}")
            if self._nodes.get(node.item) is not node:
                raise AssertionError(f"node map out of sync at {node.item!r}")
            label = node.label
            node = node.next
        if count != len(self._nodes):
            raise AssertionError("node map out of sync with list")
