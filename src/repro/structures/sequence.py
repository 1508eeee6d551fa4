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

:class:`repro.core.korder.KOrder` keeps one list per block.  The engine's
hot loops read labels straight from the node map (``nodes``), so an
order test is one integer comparison in C.  A relabeling rewrites labels
in place without reordering items, so a label read before it stays
comparable only with labels read before it: a holder of labels re-reads
them when ``relabels`` moved, as ``OrderInsert``'s jump heap does.
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
        Order tests answered: ``precedes`` calls plus the labels the
        insertion scan and the removal repair read from
        :attr:`TaggedOrderList.nodes` (each charges one per label read).
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
    """One OM-list node: the item plus its integer order label."""

    __slots__ = ("item", "label", "prev", "next")

    def __init__(self, item: Hashable, label: int) -> None:
        self.item = item
        self.label = label
        self.prev: Optional[_ListNode] = None
        self.next: Optional[_ListNode] = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"_ListNode({self.item!r}, label={self.label})"


class TaggedOrderList:
    """Dietz–Sleator tagged order-maintenance list with Bender relabeling.

    A doubly-linked list between two sentinels labeled ``0`` and
    ``_SPAN``; stored nodes carry strictly increasing integer labels in
    between.  ``precedes`` is one integer comparison; insertion bisects
    the neighboring label gap (with wide fast-path gaps for appends and
    prepends, which whole :meth:`extend_back` runs and
    :meth:`move_front` chains share) and, when a gap is exhausted,
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
        #: The item-to-node map (read-only): ``nodes[item].label`` is the
        #: item's current label, so ``a`` precedes ``b`` iff
        #: ``nodes[a].label < nodes[b].label``.  Hot loops fetch it once
        #: and charge ``stats.order_queries`` for the labels they read; a
        #: label is stale once ``stats.relabels`` moved or its item moved.
        self.nodes: dict[Hashable, _ListNode] = {}
        self.extend_back(items)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.nodes)

    def __bool__(self) -> bool:
        return bool(self.nodes)

    def __contains__(self, item: Hashable) -> bool:
        return item in self.nodes

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
        return self.nodes[a].label < self.nodes[b].label

    def successor(self, item: Hashable) -> Optional[Any]:
        """Item immediately after ``item``, or ``None`` if it is the last."""
        node = self.nodes[item].next
        return None if node is self._tail else node.item

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------

    def insert_back(self, item: Hashable) -> None:
        """Insert ``item`` as the new last element."""
        if item in self.nodes:
            raise ValueError(f"item {item!r} already stored in sequence")
        node = _ListNode(item, 0)
        self._place(node, self._tail.prev, self._tail)
        self.nodes[item] = node

    def extend_back(self, items: Iterable[Hashable]) -> None:
        """Append ``items`` in order with the labels, and any
        :class:`OverflowError`, of one :meth:`insert_back` per item: one
        pass at the append fast path's spacing while it has room below
        the tail, then item by item.  Raises :class:`ValueError`, changing
        nothing, on an item already stored or repeated in ``items``."""
        run = list(items)
        self._check_new(run)
        nodes, tail, gap = self.nodes, self._tail, self._GAP
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

    def move_front(
        self, source: "TaggedOrderList", items: Iterable[Hashable]
    ) -> None:
        """Move ``items`` out of ``source`` to the front of this list in
        their given order — the ``OrderInsert`` ending-phase move.

        ``move_front(source, [a, b, c])`` on sequence ``[x]`` yields
        ``[a, b, c, x]``.  The items keep their nodes, so a change of
        k-order block allocates nothing.

        The whole chain is labeled in one pass, directly below the
        current first node at the prepend fast path's spacing
        ``min(_GAP, first.label // (L + 1))`` for a chain of length
        ``L``.  A chain therefore uses only the front room it needs:
        after one spread has opened the front gap, a 30k-item list takes
        ~2^27 single-item prepends before it needs another, so prepends
        cost amortized O(1).  Only when the front gap is shorter than
        the chain are the existing labels spread over the whole space
        once (one ``relabels`` event) before the chain lands.

        Raises :class:`ValueError` on an item already stored here (or
        twice in the chain) and :class:`OverflowError` when the list
        would hold more than ``_SPAN // 2`` items, the most a whole-list
        spread leaves gaps of 2 between; neither error changes either
        list.  Raises :class:`KeyError` on an item ``source`` does not
        hold.
        """
        chain = list(items)
        self._check_new(chain)
        nodes = self.nodes
        count = len(chain)
        if len(nodes) + count > self._SPAN // 2:
            raise OverflowError(
                f"order list full: {len(nodes)} + {count} items "
                f"exceed {self._SPAN // 2}"
            )
        # Look every node up before unlinking any, so a KeyError leaves
        # ``source`` as it was.
        taken = list(map(source.nodes.__getitem__, chain))
        for item in chain:
            source._take(item)
        first = self._head.next
        if first.label <= count:
            # Not enough label room in front: spread the existing labels
            # over the whole space once, instead of cascading per-item
            # relabels while the chain lands.
            self._spread()
        step = min(self._GAP, first.label // (count + 1))
        prev = self._head
        if step < 1:
            # Even the spread front gap is shorter than the chain, i.e.
            # (items + 1) * (chain + 1) exceeds the label space: place
            # one at a time and let the range relabeling make room.
            for node in taken:
                self._place(node, prev, prev.next)
                nodes[node.item] = node
                prev = node
            return
        label = first.label - (count + 1) * step
        for node in taken:
            label += step
            node.label = label
            nodes[node.item] = node
            node.prev = prev
            prev.next = node
            prev = node
        prev.next = first
        first.prev = prev

    def move_back(self, source: "TaggedOrderList", item: Hashable) -> None:
        """Move ``item`` out of ``source`` to the back of this list,
        labeled as :meth:`insert_back` labels it, reusing its node.

        Raises :class:`ValueError` on an item already stored here and
        :class:`KeyError` on one ``source`` does not hold, before either
        list changes.
        """
        if item in self.nodes:
            raise ValueError(f"item {item!r} already stored in sequence")
        node = source._take(item)
        tail = self._tail
        self._place(node, tail.prev, tail)
        self.nodes[item] = node

    def move_after(self, anchor_item: Hashable, item: Hashable) -> None:
        """Relocate ``item`` to immediately after ``anchor_item``.

        Reuses ``item``'s node: one unlink and one :meth:`_place`, with
        no node allocated and no node-map update.
        """
        node = self.nodes[item]
        anchor = self.nodes[anchor_item]
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
        node = self._take(item)
        node.prev = node.next = None

    def clear(self) -> None:
        """Remove every item."""
        self.nodes.clear()
        self._head.next = self._tail
        self._tail.prev = self._head

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _check_new(self, run: list) -> None:
        """Raise :class:`ValueError` on an item stored or repeated in ``run``."""
        if len(run) == 1:
            if run[0] not in self.nodes:
                return
        elif len(set(run)) == len(run) and self.nodes.keys().isdisjoint(run):
            return
        seen: set = set()
        for item in run:
            if item in self.nodes or item in seen:
                raise ValueError(f"item {item!r} already stored in sequence")
            seen.add(item)

    def _take(self, item: Hashable) -> _ListNode:
        """Unlink ``item``'s node and drop it from the map; returns it."""
        node = self.nodes.pop(item)
        node.prev.next = node.next
        node.next.prev = node.prev
        return node

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
        :meth:`move_front` relies on to reserve chain-sized room.
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
            if self.nodes.get(node.item) is not node:
                raise AssertionError(f"node map out of sync at {node.item!r}")
            label = node.label
            node = node.next
        if count != len(self.nodes):
            raise AssertionError("node map out of sync with list")
