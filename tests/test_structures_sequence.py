"""Tests for the order-maintenance list behind the k-order blocks.

:class:`TaggedOrderList` is driven through positional scenarios and a
hypothesis model against a plain-list reference, plus the relabel-storm
stress cases (adversarial same-position inserts) that exercise its
Bender relabeling.  The behavior suite runs twice: over the real label
space and over a narrow one where nearly every insert relabels.
"""

import heapq
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import insert_after
from repro.structures.sequence import SequenceStats, TaggedOrderList


class NarrowOrderList(TaggedOrderList):
    """The same list over a 2^10 label space with 2-wide append gaps:
    gaps run out after a few inserts, and the whole-space spread fallback
    (unreachable at the real width) fires under modest loads."""

    _SPAN = 1 << 10
    _GAP = 1 << 1


def labels(seq):
    """The stored labels, left to right."""
    return [node.label for node in seq._iter_nodes()]


def prepend(seq, chain):
    """Prepend ``chain`` to ``seq`` through ``move_front``, out of a
    scratch list that holds each of its items once."""
    seq.move_front(TaggedOrderList(dict.fromkeys(chain)), chain)


def appended(seq, run, bulk):
    """Append ``run`` to ``seq`` in one ``extend_back`` call (``bulk``)
    or one ``insert_back`` per item; ``True`` when that overflowed."""
    try:
        if bulk:
            seq.extend_back(run)
        else:
            for item in run:
                seq.insert_back(item)
    except OverflowError:
        return True
    return False


# ----------------------------------------------------------------------
# Sequence behavior against positions and a plain-list model
# ----------------------------------------------------------------------

@pytest.mark.parametrize(
    "order_list", [TaggedOrderList, NarrowOrderList], ids=["wide", "narrow"]
)
class TestSequenceBehavior:
    def test_positional_insertions(self, order_list):
        seq = order_list()
        seq.insert_back("b")
        prepend(seq, ["a"])
        insert_after(seq, "b", "d")
        insert_after(seq, "b", "c")
        assert seq.to_list() == ["a", "b", "c", "d"]
        assert len(seq) == 4 and "c" in seq and "z" not in seq
        seq.check_invariants()

    def test_move_front_preserves_given_order(self, order_list):
        seq = order_list()
        seq.insert_back("x")
        source = TaggedOrderList(["c", "b", "a", "d"])
        node_b = source.nodes["b"]
        seq.move_front(source, ["a", "b", "c"])
        assert seq.to_list() == ["a", "b", "c", "x"]
        assert source.to_list() == ["d"] and "b" not in source
        assert seq.nodes["b"] is node_b  # the node moved along
        with pytest.raises(KeyError):
            seq.move_front(source, ["e"])
        with pytest.raises(ValueError):
            seq.move_front(source, ["d", "a"])  # "a" is stored here
        assert source.to_list() == ["d"]
        seq.check_invariants()
        source.check_invariants()

    def test_move_back_appends_out_of_another_list(self, order_list):
        seq = order_list(["x"])
        source = TaggedOrderList(["a", "b", "c"])
        node_b = source.nodes["b"]
        seq.move_back(source, "b")
        assert seq.to_list() == ["x", "b"] and source.to_list() == ["a", "c"]
        assert seq.nodes["b"] is node_b
        with pytest.raises(ValueError):
            seq.move_back(TaggedOrderList(["x"]), "x")
        with pytest.raises(KeyError):
            seq.move_back(source, "z")
        assert source.to_list() == ["a", "c"]
        seq.check_invariants()
        source.check_invariants()

    def test_move_front_missing_item_changes_neither_list(self, order_list):
        """A chain naming an item ``source`` does not hold raises
        ``KeyError`` before any item of the chain leaves ``source``."""
        seq = order_list(["x"])
        source = TaggedOrderList(["a", "b", "c"])
        with pytest.raises(KeyError):
            seq.move_front(source, ["a", "b", "z"])
        assert source.to_list() == ["a", "b", "c"] and len(source) == 3
        assert seq.to_list() == ["x"]
        seq.move_front(source, ["b", "a"])
        assert seq.to_list() == ["b", "a", "x"] and source.to_list() == ["c"]
        seq.check_invariants()
        source.check_invariants()

    def test_move_front_rejects_stored_and_repeated_items(self, order_list):
        """One-item and longer chains alike: an item stored here or
        repeated in the chain raises ``ValueError``, changing neither
        list."""
        seq = order_list(["a", "b"])
        source = TaggedOrderList(["a", "n", "m"])
        before = labels(seq)
        for chain in (["a"], ["n", "n"], ["n", "b"], ["m", "n", "m"]):
            with pytest.raises(ValueError):
                seq.move_front(source, chain)
            assert labels(seq) == before and seq.to_list() == ["a", "b"]
            assert source.to_list() == ["a", "n", "m"]
        seq.move_front(source, ["m"])
        assert seq.to_list() == ["m", "a", "b"]
        seq.check_invariants()
        source.check_invariants()

    def test_move_front_of_an_empty_chain_changes_nothing(self, order_list):
        for stored in ([], ["x", "y"]):
            seq = order_list(stored)
            before = labels(seq)
            seq.move_front(TaggedOrderList(["a"]), [])
            assert seq.to_list() == stored and labels(seq) == before
            seq.check_invariants()

    def test_move_back_labels_like_insert_back(self, order_list):
        """Nodes moved in from another list get the labels, and cause the
        relabels, that ``insert_back`` gives fresh items."""
        moved, fresh = order_list(), order_list()
        source = TaggedOrderList(range(40))
        for item in range(40):
            moved.move_back(source, item)
            fresh.insert_back(item)
        assert labels(moved) == labels(fresh)
        assert moved.stats.relabels == fresh.stats.relabels
        assert not source and moved.to_list() == list(range(40))
        moved.check_invariants()

    @given(ops=st.lists(
        st.tuples(st.integers(0, 3), st.integers(0, 10**6)), max_size=80
    ))
    @settings(max_examples=30, deadline=None)
    def test_label_heap_pops_in_list_order(self, order_list, ops):
        """``(label, item)`` pairs read from the node map pop off a heap in
        list order after any mix of updates — the order OrderInsert's
        jump heap visits a block in."""
        seq = order_list()
        next_item = 0
        for kind, pick in ops:
            items = seq.to_list()
            if kind == 0 or not items:
                prepend(seq, [next_item])
                next_item += 1
            elif kind == 1:
                insert_after(seq, items[pick % len(items)], next_item)
                next_item += 1
            elif kind == 2 and len(items) > 1:
                at = pick % len(items)
                step = 1 + pick // 7 % (len(items) - 1)  # never the anchor
                seq.move_after(items[at], items[(at + step) % len(items)])
            else:
                seq.remove(items[pick % len(items)])
        heap = [(node.label, item) for item, node in seq.nodes.items()]
        heapq.heapify(heap)
        popped = [heapq.heappop(heap)[1] for _ in range(len(heap))]
        assert popped == seq.to_list()

    def test_move_after(self, order_list):
        seq = order_list()
        seq.extend_back("abcde")
        seq.move_after("d", "b")
        assert seq.to_list() == list("acdbe")
        seq.move_after("a", "e")  # backward move, the eviction shape
        assert seq.to_list() == list("aecdb")
        with pytest.raises(ValueError):
            seq.move_after("a", "a")
        seq.check_invariants()

    @pytest.mark.parametrize("size", [0, 1, 3, 30_000])
    def test_constructor_labels_like_insert_back(self, order_list, size):
        """The constructor labels its items exactly as one ``insert_back``
        per item does, past the end of the append fast path (511 items on
        the narrow list) and up to the same ``OverflowError``."""
        run = [("r", i) for i in range(size)]
        grown = order_list()
        if appended(grown, run, bulk=False):
            assert size > order_list._SPAN // 2
            with pytest.raises(OverflowError):
                order_list(run)
            return
        seq = order_list(run)
        assert seq.to_list() == run
        assert labels(seq) == labels(grown)
        assert seq.stats.relabels == grown.stats.relabels
        seq.check_invariants()

    @pytest.mark.parametrize("size", [0, 1, 3, 30_000])
    @pytest.mark.parametrize("stored", [False, True], ids=["empty", "non-empty"])
    def test_extend_back_labels_like_insert_back(self, order_list, size, stored):
        """``extend_back`` gives the labels, the relabel count and, on
        overflow, the stored prefix that one ``insert_back`` per item
        gives -- also after a last label off the fast path's grid."""
        run = [("r", i) for i in range(size)]
        outcomes = []
        for bulk in (False, True):
            seq = order_list()
            if stored:
                seq.insert_back("a")
                seq.insert_back("b")
                insert_after(seq, "a", "c")  # bisects a gap
                seq.remove("b")
            overflowed = appended(seq, run, bulk)
            seq.check_invariants()
            outcomes.append(
                (overflowed, seq.to_list(), labels(seq), seq.stats.relabels)
            )
        assert outcomes[0] == outcomes[1]
        overflowed, order = outcomes[1][:2]
        if not overflowed:
            assert order == ["a", "c"] * stored + run

    def test_bulk_append_rejects_duplicates_unchanged(self, order_list):
        seq = order_list(range(5))
        before = labels(seq)
        for run in ([7, 8, 7], [9, 3], [2]):
            with pytest.raises(ValueError):
                seq.extend_back(run)
            assert labels(seq) == before and len(seq) == 5
            assert 7 not in seq and 9 not in seq
        seq.check_invariants()
        with pytest.raises(ValueError):
            order_list(["x", "y", "x"])

    def test_precedes_matches_positions(self, order_list):
        seq = order_list()
        seq.extend_back(range(10))
        for i in range(10):
            for j in range(10):
                if i != j:
                    assert seq.precedes(i, j) == (i < j)

    def test_successor(self, order_list):
        seq = order_list()
        seq.extend_back("abcde")
        assert seq.successor("b") == "c"
        assert seq.successor("e") is None

    def test_duplicate_and_missing_items_raise(self, order_list):
        seq = order_list()
        seq.insert_back(1)
        with pytest.raises(ValueError):
            seq.insert_back(1)
        with pytest.raises(KeyError):
            seq.remove(2)
        with pytest.raises(KeyError):
            seq.precedes(1, 2)

    def test_empty_sequence_edges(self, order_list):
        seq = order_list()
        assert len(seq) == 0 and not seq and seq.to_list() == []
        seq.insert_back(1)
        seq.clear()
        assert seq.to_list() == [] and 1 not in seq
        seq.insert_back(2)  # usable after clear
        assert seq.to_list() == [2]
        seq.check_invariants()

    def test_labels_compare_like_positions(self, order_list):
        seq = order_list()
        seq.extend_back(range(20))
        keys = {i: seq.nodes[i].label for i in range(20)}
        for a in range(20):
            for b in range(20):
                assert (keys[a] < keys[b]) == (a < b)
                assert (keys[a] > keys[b]) == (a > b)

    def test_order_queries_counted(self, order_list):
        stats = SequenceStats()
        seq = order_list(stats=stats)
        seq.extend_back(range(5))
        before = stats.order_queries
        seq.precedes(0, 4)
        seq.precedes(4, 0)
        assert stats.order_queries == before + 2

    @given(ops=st.lists(
        st.tuples(st.integers(0, 5), st.integers(0, 1000)), max_size=120
    ))
    @settings(max_examples=60, deadline=None)
    # Fill with 100 appends, then prepend chains: in the narrow space the
    # 20-chain spreads and falls back to per-item inserts, and the later
    # chains fill the list exactly and overflow it; in the wide space
    # the chains shrink the front gap until one of them spreads.
    @example(ops=[(1, 0)] * 100 + [(4, 19)] + [(4, 39)] * 10 + [
        (4, 31), (1, 0), (0, 1), (5, 3), (3, 5), (2, 7), (1, 0),
    ])
    def test_random_interleaving_matches_reference(self, order_list, ops):
        """Random insert/prepend-chain/move/remove/precedes interleavings
        vs a plain list.  Chains of 1-40 items reach the fast-path
        placement, the spread fallback and (narrow) the per-item
        fallback.  Only past ``_SPAN // 2`` items may an insert or a
        move raise, and then it must leave the list unchanged; a chain
        that would pass that size always raises."""
        seq = order_list()
        ref = []
        room = order_list._SPAN // 2
        next_item = 0

        def attempt(call, size):
            try:
                call()
            except OverflowError:
                assert size > room
                assert seq.to_list() == ref
                return False
            return True

        def insert(call, at):
            if attempt(call, len(ref) + 1):
                ref.insert(at, item)

        for kind, pick in ops:
            item = next_item
            if kind == 4:  # prepend a chain
                chain = list(range(item, item + 1 + pick % 40))
                next_item += len(chain)
                if len(ref) + len(chain) > room:
                    with pytest.raises(OverflowError):
                        prepend(seq, chain)
                    assert seq.to_list() == ref
                else:
                    prepend(seq, chain)
                    ref[:0] = chain
            elif kind == 0 or not ref:  # insert at a position
                next_item += 1
                if ref and pick % 2:
                    anchor = ref[pick % len(ref)]
                    insert(
                        lambda: insert_after(seq, anchor, item),
                        ref.index(anchor) + 1,
                    )
                else:
                    insert(lambda: prepend(seq, [item]), 0)
            elif kind == 1:
                next_item += 1
                insert(lambda: seq.insert_back(item), len(ref))
            elif kind == 2:
                victim = ref.pop(pick % len(ref))
                seq.remove(victim)
            else:
                a = ref[pick % len(ref)]
                b = ref[(pick * 7 + 3) % len(ref)]
                if a == b:
                    continue
                if kind == 3:
                    assert seq.precedes(a, b) == (ref.index(a) < ref.index(b))
                elif attempt(lambda: seq.move_after(a, b), len(ref)):
                    ref.remove(b)  # kind 5 moved b right after a
                    ref.insert(ref.index(a) + 1, b)
        assert seq.to_list() == ref
        seq.check_invariants()


# ----------------------------------------------------------------------
# OM-list specifics: labels and relabeling
# ----------------------------------------------------------------------

class TestTaggedOrderList:
    def test_relabel_storm_same_position_inserts(self):
        """Adversarial same-gap hammering: every insert lands right after
        one fixed anchor, exhausting its label gap over and over."""
        stats = SequenceStats()
        seq = TaggedOrderList(stats=stats)
        seq.extend_back(range(200))
        anchor = 100
        storm = [1000 + i for i in range(2000)]
        for item in storm:
            insert_after(seq, anchor, item)
        assert stats.relabels > 0
        expected = list(range(101)) + storm[::-1] + list(range(101, 200))
        assert seq.to_list() == expected
        seq.check_invariants()

    def test_move_front_preallocates_labels(self):
        """A whole chain prepended at once is labeled in one pass below
        the first node instead of bisecting the same gap per item — no
        relabel storm on a roomy front."""
        stats = SequenceStats()
        seq = TaggedOrderList(stats=stats)
        seq.extend_back(range(100))
        chain = [1000 + i for i in range(5000)]
        prepend(seq, chain)
        assert stats.relabels == 0
        assert seq.to_list() == chain + list(range(100))
        seq.check_invariants()
        # The per-item shape of the same bulk load storms: that is the
        # behaviour the preallocation removes.
        storm_stats = SequenceStats()
        storm = TaggedOrderList(stats=storm_stats)
        storm.extend_back(range(100))
        previous = None
        for item in chain:
            if previous is None:
                prepend(storm, [item])
            else:
                insert_after(storm, previous, item)
            previous = item
        assert storm.to_list() == seq.to_list()
        assert storm_stats.relabels > 0

    def test_move_front_on_empty_and_tight_front(self):
        """Chains land correctly on an empty list and when the front gap
        is smaller than the chain (one spread, then the chain)."""
        seq = TaggedOrderList()
        prepend(seq, "abc")
        assert seq.to_list() == list("abc")
        seq.check_invariants()
        # Exhaust the front label space so the chain cannot fit: a
        # 2000-item chain lands at the spacing that just fits below the
        # first appended node, leaving a front gap of a few hundred.
        stats = SequenceStats()
        tight = TaggedOrderList(stats=stats)
        tight.extend_back(range(10))
        prepend(tight, range(10, 2010))
        front = list(tight)
        chain = [-1, -2, -3, *range(100000, 103000)]
        assert tight.nodes[front[0]].label <= len(chain)
        before = stats.relabels
        prepend(tight, chain)
        assert stats.relabels == before + 1
        assert tight.to_list() == chain + front
        tight.check_invariants()
        with pytest.raises(ValueError):
            prepend(tight, [-1])
        with pytest.raises(ValueError):
            prepend(tight, ["x", "x"])

    def test_front_storm(self):
        """Single-item prepends in front of an appended first item halve
        the leading gap until a spread reopens it; order survives."""
        stats = SequenceStats()
        seq = TaggedOrderList(stats=stats)
        storm = list(range(3000))
        seq.insert_back(storm[0])
        for item in storm[1:]:
            prepend(seq, [item])
        assert seq.to_list() == storm[::-1]
        assert stats.relabels > 0
        seq.check_invariants()

    def test_relabels_keep_order_and_move_labels(self):
        """A relabel storm rewrites labels but never reorders items: labels
        read after it compare like positions, while labels read before it
        may not — why OrderInsert re-keys its heap when ``relabels``
        moves."""
        seq = TaggedOrderList()
        seq.extend_back(range(100))
        held = range(0, 100, 7)
        before = {i: seq.nodes[i].label for i in held}
        relabels_before = seq.stats.relabels
        for i in range(1500):
            insert_after(seq, 50, 1000 + i)  # storm between 50 and 51
        assert seq.stats.relabels > relabels_before
        after = {i: seq.nodes[i].label for i in held}
        assert after != before
        for a in held:
            for b in held:
                assert (after[a] < after[b]) == (a < b)

    def test_move_after_reuses_the_node(self):
        """move_after relinks the item's own node: the node map keeps the
        same node, whose label follows the item's new position through
        later relabel storms."""
        seq = TaggedOrderList()
        seq.extend_back(range(50))
        node_30 = seq.nodes[30]
        seq.move_after(5, 30)  # 30 now sits between 5 and 6
        assert seq.nodes[30] is node_30
        assert seq.precedes(30, 10) and seq.precedes(5, 30)
        relabels_before = seq.stats.relabels
        for i in range(1500):
            insert_after(seq, 5, 1000 + i)  # storm right around 30's gap
        assert seq.stats.relabels > relabels_before
        assert seq.nodes[30] is node_30
        assert seq.nodes[5].label < node_30.label < seq.nodes[10].label
        assert seq.to_list().index(30) == seq.to_list().index(5) + 1501
        seq.check_invariants()

    def test_labels_strictly_increasing_under_random_churn(self):
        rng = random.Random(9)
        seq = TaggedOrderList()
        ref = []
        for i in range(4000):
            if ref and rng.random() < 0.3:
                victim = ref.pop(rng.randrange(len(ref)))
                seq.remove(victim)
            elif ref and rng.random() < 0.7:
                anchor = ref[rng.randrange(len(ref))]
                insert_after(seq, anchor, i)
                ref.insert(ref.index(anchor) + 1, i)
            else:
                seq.insert_back(i)
                ref.append(i)
        assert seq.to_list() == ref
        seq.check_invariants()

    def test_single_prepends_relabel_a_bounded_number_of_labels(self):
        """Repeated one-item prepends — OrderInsert moving a single
        promoted vertex to the front of its new block — cost amortized
        O(1): one spread opens the front gap, and the chains then land
        at fast-path spacing instead of halving it until the next
        whole-list spread."""

        class RewriteCounting(TaggedOrderList):
            rewrites = 0

            def _labels(self):
                return [node.label for node in self._iter_nodes()]

            def _relabel(self, anchor):
                before, rewrites = self._labels(), self.rewrites
                super()._relabel(anchor)
                if self.rewrites == rewrites:  # a range, not a spread
                    self.rewrites += sum(
                        a != b for a, b in zip(before, self._labels())
                    )

            def _spread(self):
                self.rewrites += len(self)
                super()._spread()

        seq = RewriteCounting()
        seq.extend_back(range(30_000))
        for item in range(30_000, 40_000):
            prepend(seq, [item])
        assert seq.stats.relabels <= 2
        assert seq.rewrites <= 2 * 40_000
        assert seq.to_list() == list(range(39_999, 29_999, -1)) + list(
            range(30_000)
        )
        seq.check_invariants()

    def test_full_list_raises_instead_of_misordering(self):
        """A whole-space spread keeps gaps of 2 for at most ``_SPAN // 2``
        items.  Past that, a relabel used to spread labels at step 1,
        collide, and silently break order tests; now an insert and a move
        refuse before changing the order."""
        room = NarrowOrderList._SPAN // 2
        seq = NarrowOrderList()
        seq.insert_back(0)
        for item in range(1, room):
            insert_after(seq, 0, item)
        full = seq.to_list()
        with pytest.raises(OverflowError):
            insert_after(seq, 0, room)
        assert seq.to_list() == full and room not in seq
        seq.check_invariants()
        assert all(seq.precedes(a, b) for a, b in zip(full, full[1:]))
        # An open gap still takes one more item, but a move into the
        # exhausted gap behind 0 cannot be made room for either.
        insert_after(seq, full[-1], room)
        full.append(room)
        with pytest.raises(OverflowError):
            seq.move_after(0, full[-2])
        assert seq.to_list() == full
        seq.check_invariants()

        small = NarrowOrderList(range(10))
        with pytest.raises(OverflowError):
            prepend(small, range(100, 100 + room - 9))
        assert small.to_list() == list(range(10))
        small.check_invariants()
        chain = list(range(100, 100 + room - 10))  # exactly fills it
        prepend(small, chain)
        assert small.to_list() == chain + list(range(10))
        small.check_invariants()

    def test_narrow_label_space_reaches_the_spread_fallback(self):
        """What the narrow behavior variant stresses: a same-position
        storm past the label space's density limit relabels on nearly
        every insert and ends in whole-space spreads, yet keeps order."""
        spreads = []

        class Counting(NarrowOrderList):
            def _spread(self):
                spreads.append(len(self))
                super()._spread()

        seq = Counting()
        seq.extend_back(range(2))
        ref = [0, 1]
        for item in range(2, 300):
            insert_after(seq, 0, item)
            ref.insert(1, item)
        assert seq.to_list() == ref
        assert seq.stats.relabels > 100
        assert spreads
        seq.check_invariants()

    def test_stats_reset_and_as_dict(self):
        stats = SequenceStats(order_queries=3, relabels=1)
        assert stats.as_dict() == {"order_queries": 3, "relabels": 1}
        stats.reset()
        assert stats.as_dict() == {"order_queries": 0, "relabels": 0}
