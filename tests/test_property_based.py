"""Property-based tests (hypothesis) on the core data structures and the
maintenance invariants."""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.decomposition import (
    core_numbers,
    is_valid_korder,
    korder_decomposition,
)
from repro.core.maintainer import OrderedCoreMaintainer, compute_mcd
from repro.graphs.undirected import DynamicGraph
from repro.naive.maintainer import NaiveCoreMaintainer
from repro.structures.heaps import LazyMinHeap

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
# Lazy heap properties
# ----------------------------------------------------------------------

class TestHeapProperties:
    @given(
        st.lists(
            st.tuples(st.integers(0, 50), st.integers(0, 20)), max_size=60
        )
    )
    def test_pops_come_out_sorted(self, pushes):
        heap = LazyMinHeap()
        live = {}
        for key, item in pushes:
            if item not in live:
                heap.push(key, item)
                live[item] = key
        popped = []
        while True:
            top = heap.pop()
            if top is None:
                break
            popped.append(top[0])
        assert popped == sorted(popped)
        assert len(popped) == len(live)


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
