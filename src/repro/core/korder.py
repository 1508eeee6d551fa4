"""The maintained k-order index (Section VI of the paper).

A :class:`KOrder` is the concatenation ``O_0 O_1 O_2 ...`` of per-core
blocks.  Each block (the paper's ``A_k``) is a
:class:`~repro.structures.sequence.TaggedOrderList`: Dietz–Sleator
integer labels make within-block order tests ``O(1)``.  Block ``O_k``
holds exactly the vertices of core number ``k``, so a vertex's block
*is* its core number: the index reads it from the core map it orders by
(``korder.core``, the engine's own) and never writes that map.  Whoever
changes a core number moves the vertex between blocks in the same step
(:meth:`KOrder.promote_chain`, :meth:`KOrder.move_back`).  Cross-block
tests are a core-number comparison.  All blocks of one index share a
single :class:`~repro.structures.sequence.SequenceStats`
(``korder.stats``), so ``order_queries`` / ``relabels`` survive blocks
being created and dropped.  The structure also owns ``deg+``
(Definition 5.2): for every vertex, the number of its neighbors
appearing *after* it in the global order.

Invariant (Lemma 5.1): the order is a valid k-order iff for every ``k`` and
every ``v`` in ``O_k``, ``deg+(v) <= k``.  :meth:`KOrder.audit` verifies
this, plus the consistency of ``deg+`` itself, and is wired into the
engines' ``audit`` mode used heavily by the tests.
"""

from __future__ import annotations

from itertools import groupby
from typing import Hashable, Iterator, Optional

from repro.core.decomposition import KOrderDecomposition
from repro.errors import InvariantViolationError
from repro.graphs.undirected import DynamicGraph
from repro.structures.sequence import SequenceStats, TaggedOrderList

Vertex = Hashable


class KOrder:
    """Per-core-number blocks of vertices in maintained k-order.

    ``core`` is the core map the index orders by; the index keeps a
    reference to it, reads block membership from it and never writes
    it.  :meth:`from_decomposition` orders by the decomposition's own map:

    >>> from repro.core.decomposition import korder_decomposition
    >>> from repro.graphs import DynamicGraph
    >>> g = DynamicGraph([(0, 1), (1, 2), (2, 0), (2, 3)])
    >>> d = korder_decomposition(g)
    >>> ko = KOrder.from_decomposition(d)
    >>> ko.core is d.core
    True
    >>> ko.order()
    [3, 0, 1, 2]
    >>> d.core[3] = 2  # a core moved without its vertex: the audit sees it
    >>> ko.audit(g)
    Traceback (most recent call last):
    ...
    repro.errors.InvariantViolationError: 3 in block O_1 but core=2
    """

    def __init__(
        self, core: dict[Vertex, int], stats: Optional[SequenceStats] = None
    ) -> None:
        #: The core map the index orders by (read, never written).
        self.core = core
        #: Shared operation counters across all blocks, past and present.
        self.stats = SequenceStats() if stats is None else stats
        self._blocks: dict[int, TaggedOrderList] = {}
        #: ``deg+``: neighbors after the vertex in the global order.
        self.deg_plus: dict[Vertex, int] = {}

    @classmethod
    def from_decomposition(
        cls,
        decomposition: KOrderDecomposition,
        stats: Optional[SequenceStats] = None,
    ) -> "KOrder":
        """Build the index from a static decomposition's order, one
        :meth:`~TaggedOrderList.extend_back` per run of equal core,
        ordering by ``decomposition.core`` itself; ``stats`` carries an
        earlier index's counters over (a rebuild)."""
        ko = cls(decomposition.core, stats)
        for k, run in groupby(decomposition.order, ko.core.__getitem__):
            ko.block(k).extend_back(run)
        ko.deg_plus.update(decomposition.deg_plus)
        return ko

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return sum(map(len, self._blocks.values()))

    def __contains__(self, vertex: Vertex) -> bool:
        block = self._blocks.get(self.core.get(vertex))
        return block is not None and vertex in block

    def block(self, k: int) -> TaggedOrderList:
        """The list of block ``O_k``, created on first access."""
        seq = self._blocks.get(k)
        if seq is None:
            seq = self._blocks[k] = TaggedOrderList(stats=self.stats)
        return seq

    def block_sizes(self) -> dict[int, int]:
        """Map ``k -> |O_k|`` over non-empty blocks."""
        return {k: len(t) for k, t in self._blocks.items() if len(t)}

    def precedes(self, u: Vertex, v: Vertex) -> bool:
        """Global order test ``u ≼ v`` (strict)."""
        ku, kv = self.core[u], self.core[v]
        if ku != kv:
            return ku < kv
        return self._blocks[ku].precedes(u, v)

    def iter_block(self, k: int) -> Iterator[Vertex]:
        """Left-to-right iteration over block ``O_k`` (empty if absent)."""
        block = self._blocks.get(k)
        return iter(block) if block is not None else iter(())

    def order(self) -> list[Vertex]:
        """The full k-order as a list (``O_0 O_1 O_2 ...``)."""
        out: list[Vertex] = []
        for k in sorted(self._blocks):
            out.extend(self._blocks[k])
        return out

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------

    def append(self, vertex: Vertex) -> None:
        """Append ``vertex`` at the end of its core's block."""
        self.block(self.core[vertex]).insert_back(vertex)

    def promote_chain(self, k: int, vertices: list[Vertex]) -> None:
        """Move ``vertices``, all in ``O_k`` and already at core
        ``k + 1``, to the *front* of ``O_{k+1}`` in their given order —
        the ``OrderInsert`` ending-phase move.

        The block labels the chain in one pass at its prepend fast-path
        spacing (amortized O(1) per vertex, with one whole-block spread
        per ~2^27 single-vertex prepends on a 30k-vertex block), and each
        vertex keeps its list node (:meth:`TaggedOrderList.move_front`)."""
        source = self._blocks[k]
        self.block(k + 1).move_front(source, vertices)
        if not source.nodes:
            del self._blocks[k]

    def move_back(self, vertex: Vertex, k: int) -> None:
        """Move ``vertex`` from block ``O_k`` to the end of its core's
        block, keeping its list node — the ``OrderRemoval`` repair's move
        (the cascade has already lowered the core)."""
        source = self._blocks[k]
        self.block(self.core[vertex]).move_back(source, vertex)
        if not source.nodes:
            del self._blocks[k]

    def remove(self, vertex: Vertex) -> None:
        """Remove ``vertex`` from its block (``deg+`` entry kept)."""
        k = self.core[vertex]
        block = self._blocks[k]
        block.remove(vertex)
        if not block:
            del self._blocks[k]

    def forget(self, vertex: Vertex) -> None:
        """Remove ``vertex`` and drop its ``deg+`` (vertex left the graph);
        its core entry must still be there."""
        self.remove(vertex)
        self.deg_plus.pop(vertex, None)

    def move_after(self, anchor: Vertex, vertex: Vertex) -> None:
        """Reposition ``vertex`` immediately after ``anchor`` in the same
        block — the Observation 6.1 adjustment for evicted candidates."""
        k, ka = self.core[vertex], self.core[anchor]
        if ka != k:
            raise InvariantViolationError(
                f"move_after across blocks: {anchor!r} in O_{ka}, "
                f"{vertex!r} in O_{k}"
            )
        self._blocks[k].move_after(anchor, vertex)

    # ------------------------------------------------------------------
    # Audit
    # ------------------------------------------------------------------

    def audit(self, graph: DynamicGraph) -> None:
        """Verify the full index against the graph and :attr:`core`.

        Checks, raising :class:`InvariantViolationError` on failure:

        * every graph vertex is indexed exactly once, in block ``core(v)``;
        * ``deg+(v)`` equals the number of neighbors after ``v``;
        * Lemma 5.1: ``deg+(v) <= k`` for every ``v`` in ``O_k``.
        """
        size = len(self)
        if size != graph.n:
            raise InvariantViolationError(
                f"index holds {size} vertices, graph has {graph.n}"
            )
        core = self.core
        position: dict[Vertex, int] = {}
        offset = 0
        for k in sorted(self._blocks):
            block = self._blocks[k]
            for i, vertex in enumerate(block):
                position[vertex] = offset + i
                if core.get(vertex) != k:
                    raise InvariantViolationError(
                        f"{vertex!r} in block O_{k} but "
                        f"core={core.get(vertex)}"
                    )
            offset += len(block)
        for vertex in graph.vertices():
            if vertex not in position:
                raise InvariantViolationError(f"{vertex!r} missing from k-order")
            later = sum(
                1 for w in graph.adj[vertex] if position[w] > position[vertex]
            )
            if self.deg_plus.get(vertex) != later:
                raise InvariantViolationError(
                    f"deg+({vertex!r}) = {self.deg_plus.get(vertex)} "
                    f"but {later} neighbors follow it"
                )
            if later > core[vertex]:
                raise InvariantViolationError(
                    f"Lemma 5.1 violated at {vertex!r}: deg+ {later} > "
                    f"k {core[vertex]}"
                )
