"""Property-based tests (hypothesis) on the core data structures and the
maintenance invariants."""

import heapq

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from helpers import insert_after
from repro.core.decomposition import (
    core_numbers,
    is_valid_korder,
    korder_decomposition,
)
from repro.core.maintainer import OrderedCoreMaintainer, compute_mcd
from repro.graphs.undirected import DynamicGraph
from repro.naive.maintainer import NaiveCoreMaintainer
from repro.structures.sequence import TaggedOrderList

# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------

edge_lists = st.lists(
    st.tuples(st.integers(0, 14), st.integers(0, 14)).filter(
        lambda e: e[0] != e[1]
    ),
    max_size=60,
).map(
    lambda pairs: list(
        {(min(u, v), max(u, v)) for u, v in pairs}
    )
)

op_streams = st.lists(
    st.tuples(
        st.sampled_from(["insert", "remove"]),
        st.integers(0, 11),
        st.integers(0, 11),
    ).filter(lambda op: op[1] != op[2]),
    max_size=60,
)


# ----------------------------------------------------------------------
# Jump-heap discipline (a heapq of (label, item) pairs plus a live map)
# ----------------------------------------------------------------------

class _NarrowOrderList(TaggedOrderList):
    """A 2^12 label space with 1-wide append gaps: inserts relabel."""

    _SPAN = 1 << 12
    _GAP = 1


class TestLabelHeapProperties:
    @given(
        st.lists(
            st.tuples(
                st.booleans(), st.integers(0, 20), st.integers(0, 50)
            ),
            max_size=80,
        )
    )
    def test_live_map_pops_each_live_item_once_in_key_order(self, ops):
        """Pushing again or discarding (dropping from the live map)
        leaves stale pairs in the heap; the scan's pop loop skips them,
        so each live item comes out once, at its current key, in key
        order."""
        heap, live = [], {}
        for push, item, key in ops:
            if push:
                live[item] = key
                heapq.heappush(heap, (key, item))
            else:
                live.pop(item, None)
        expected = sorted((key, item) for item, key in live.items())
        popped = []
        while heap:
            key, item = heapq.heappop(heap)
            if live.get(item) != key:
                continue
            del live[item]
            popped.append((key, item))
        assert popped == expected

    @given(
        held=st.sets(st.integers(0, 99), max_size=40),
        at=st.integers(0, 99),
        storm=st.integers(1, 600),
    )
    @settings(deadline=None)
    def test_rekeyed_heap_pops_in_list_order_after_relabels(
        self, held, at, storm
    ):
        """Labels held across relabels go stale; re-reading them from the
        node map and heapifying once restores list order, as the
        insertion scan does when ``relabels`` moves."""
        seq = _NarrowOrderList(range(100))
        live = {w: seq.nodes[w].label for w in held}
        for i in range(storm):
            insert_after(seq, at, 1000 + i)
        live = {w: seq.nodes[w].label for w in live}
        heap = [(key, w) for w, key in live.items()]
        heapq.heapify(heap)
        popped = [heapq.heappop(heap)[1] for _ in range(len(heap))]
        assert popped == [w for w in seq.to_list() if w in held]
        seq.check_invariants()


# ----------------------------------------------------------------------
# Decomposition properties
# ----------------------------------------------------------------------

class TestDecompositionProperties:
    @given(edge_lists)
    @settings(suppress_health_check=[HealthCheck.too_slow], deadline=None)
    def test_core_definition_holds(self, edges):
        """Every vertex has >= core(v) neighbors in its own core level's
        k-core (the defining property of core numbers)."""
        graph = DynamicGraph(edges)
        core = core_numbers(graph)
        for v, k in core.items():
            members = {w for w, c in core.items() if c >= k}
            assert sum(1 for w in graph.adj[v] if w in members) >= k

    @given(edge_lists, st.sampled_from(["small", "large", "random"]))
    @settings(suppress_health_check=[HealthCheck.too_slow], deadline=None)
    def test_every_policy_emits_valid_korder(self, edges, policy):
        graph = DynamicGraph(edges)
        d = korder_decomposition(graph, policy=policy, seed=3)
        assert is_valid_korder(graph, d.core, d.order)
        assert d.core == core_numbers(graph)

    @given(edge_lists)
    @settings(suppress_health_check=[HealthCheck.too_slow], deadline=None)
    def test_mcd_definition(self, edges):
        graph = DynamicGraph(edges)
        core = core_numbers(graph)
        mcd = compute_mcd(graph, core)
        for v in graph.vertices():
            assert mcd[v] == sum(
                1 for w in graph.adj[v] if core[w] >= core[v]
            )
            assert mcd[v] >= core[v]


# ----------------------------------------------------------------------
# Maintenance invariants under random update streams
# ----------------------------------------------------------------------

class TestMaintenanceProperties:
    @given(op_streams)
    @settings(
        max_examples=40,
        suppress_health_check=[HealthCheck.too_slow],
        deadline=None,
    )
    def test_order_engine_matches_oracle_with_audits(self, ops):
        """The central property: on any op stream, the order-based engine
        (with full internal audits) matches naive recomputation."""
        order = OrderedCoreMaintainer(DynamicGraph(), audit=True)
        naive = NaiveCoreMaintainer(DynamicGraph())
        for kind, a, b in ops:
            if kind == "insert":
                if order.graph.has_edge(a, b):
                    continue
                order.insert_edge(a, b)
                naive.insert_edge(a, b)
            else:
                if not order.graph.has_edge(a, b):
                    continue
                order.remove_edge(a, b)
                naive.remove_edge(a, b)
            assert order.core_numbers() == naive.core_numbers()

    @given(op_streams)
    @settings(
        max_examples=30,
        suppress_health_check=[HealthCheck.too_slow],
        deadline=None,
    )
    def test_theorem_3_1_under_any_stream(self, ops):
        """No single edge update ever moves a core number by more than 1."""
        engine = OrderedCoreMaintainer(DynamicGraph(), audit=False)
        for kind, a, b in ops:
            before = engine.core_numbers()
            if kind == "insert":
                if engine.graph.has_edge(a, b):
                    continue
                engine.insert_edge(a, b)
            else:
                if not engine.graph.has_edge(a, b):
                    continue
                engine.remove_edge(a, b)
            after = engine.core_numbers()
            for v, c in after.items():
                assert abs(c - before.get(v, 0)) <= 1

    @given(op_streams)
    @settings(
        max_examples=30,
        suppress_health_check=[HealthCheck.too_slow],
        deadline=None,
    )
    def test_update_results_report_exact_changes(self, ops):
        """UpdateResult.changed is exactly the set of changed vertices."""
        engine = OrderedCoreMaintainer(DynamicGraph(), audit=False)
        for kind, a, b in ops:
            before = engine.core_numbers()
            if kind == "insert":
                if engine.graph.has_edge(a, b):
                    continue
                result = engine.insert_edge(a, b)
            else:
                if not engine.graph.has_edge(a, b):
                    continue
                result = engine.remove_edge(a, b)
            after = engine.core_numbers()
            actually_changed = {
                v
                for v in after
                if after[v] != before.get(v, 0)
            }
            assert set(result.changed) == actually_changed
