"""Unit tests for the maintained k-order index."""

import random

import pytest

from engine_contract import (
    build_engine,
    order_family_engines,
    order_family_variants,
)
from helpers import absent_edges, cores_by_deletion, mcd_by_scan, random_gnm
from repro.core.decomposition import (
    compute_mcd,
    core_numbers,
    korder_decomposition,
)
from repro.core.korder import KOrder
from repro.engine import Batch
from repro.errors import InvariantViolationError
from repro.graphs.undirected import DynamicGraph
from repro.service import CoreService


@pytest.fixture
def korder_and_graph(triangle_graph):
    d = korder_decomposition(triangle_graph, policy="small")
    return KOrder.from_decomposition(d), triangle_graph, d


class TestConstruction:
    def test_from_decomposition_order(self, korder_and_graph):
        ko, graph, d = korder_and_graph
        assert ko.order() == d.order
        assert len(ko) == graph.n

    def test_blocks_match_cores(self, korder_and_graph):
        ko, graph, d = korder_and_graph
        assert ko.core is d.core  # ordered by the decomposition's own map
        for v in graph.vertices():
            assert v in set(ko.iter_block(d.core[v]))

    def test_deg_plus_copied(self, korder_and_graph):
        ko, _, d = korder_and_graph
        assert ko.deg_plus == d.deg_plus

    def test_block_sizes(self, korder_and_graph):
        ko, _, _ = korder_and_graph
        assert ko.block_sizes() == {1: 1, 2: 3}

    def test_contains(self, korder_and_graph):
        ko, _, _ = korder_and_graph
        assert 0 in ko
        assert 99 not in ko


class TestOrderQueries:
    def test_precedes_cross_block(self, korder_and_graph):
        ko, _, _ = korder_and_graph
        # vertex 3 (core 1) precedes every triangle vertex (core 2)
        for v in (0, 1, 2):
            assert ko.precedes(3, v)
            assert not ko.precedes(v, 3)

    def test_precedes_within_block_consistent_with_order(self, korder_and_graph):
        ko, _, _ = korder_and_graph
        ordered = ko.order()
        for i, a in enumerate(ordered):
            for b in ordered[i + 1 :]:
                assert ko.precedes(a, b)
                assert not ko.precedes(b, a)

    def test_iter_missing_block_empty(self, korder_and_graph):
        ko, _, _ = korder_and_graph
        assert list(ko.iter_block(7)) == []


class TestUpdates:
    def test_append_to_new_block(self, korder_and_graph):
        ko, _, d = korder_and_graph
        d.core["new"] = 5
        ko.append("new")  # lands in the block its core names
        assert "new" in ko
        assert list(ko.iter_block(5)) == ["new"]
        assert ko.order()[-1] == "new"

    def test_promote_chain_preserves_relative_order(self):
        core = {**dict.fromkeys("abcd", 1), "x": 2}
        ko = KOrder(core)
        for v in "abcdx":
            ko.append(v)
        node_c = ko.block(1).nodes["c"]
        core.update(c=2, a=2)  # the caller promotes the cores first
        ko.promote_chain(1, ["c", "a"])
        assert list(ko.iter_block(2)) == ["c", "a", "x"]
        assert list(ko.iter_block(1)) == ["b", "d"]
        assert "c" in ko and "a" in ko
        assert ko.block(2).nodes["c"] is node_c  # the node moved along
        core.update(b=2, d=2)
        ko.promote_chain(1, ["b", "d"])
        assert 1 not in ko.block_sizes()
        assert ko.order() == ["b", "d", "c", "a", "x"]
        ko.block(2).check_invariants()

    def test_move_back_appends_to_another_block(self):
        core = {**dict.fromkeys("abc", 2), "x": 1}
        ko = KOrder(core)
        for v in "abcx":
            ko.append(v)
        node_b = ko.block(2).nodes["b"]
        core["b"] = 1  # the cascade lowers the core, then the repair moves
        ko.move_back("b", 2)
        assert list(ko.iter_block(1)) == ["x", "b"]
        assert list(ko.iter_block(2)) == ["a", "c"]
        assert "b" in ko and ko.block(1).nodes["b"] is node_b
        with pytest.raises(ValueError):
            ko.move_back("b", 1)  # already in O_1
        core.update(a=1, c=1)
        ko.move_back("a", 2)
        ko.move_back("c", 2)
        assert ko.block_sizes() == {1: 4}
        ko.block(1).check_invariants()

    def test_remove_drops_empty_block(self, korder_and_graph):
        ko, _, _ = korder_and_graph
        ko.remove(3)
        assert 1 not in ko.block_sizes()

    def test_forget_drops_deg_plus(self, korder_and_graph):
        ko, _, _ = korder_and_graph
        ko.forget(3)
        assert 3 not in ko.deg_plus

    def test_move_after_repositions(self):
        ko = KOrder(dict.fromkeys("abcd", 2))
        for v in "abcd":
            ko.append(v)
        ko.move_after("c", "a")
        assert list(ko.iter_block(2)) == ["b", "c", "a", "d"]

    def test_move_after_cross_block_rejected(self, korder_and_graph):
        ko, _, _ = korder_and_graph
        with pytest.raises(InvariantViolationError):
            ko.move_after(0, 3)  # 0 in O_2, 3 in O_1


class TestAudit:
    def test_clean_index_passes(self, korder_and_graph):
        ko, graph, d = korder_and_graph
        ko.audit(graph)

    def test_missing_vertex_detected(self, korder_and_graph):
        ko, graph, d = korder_and_graph
        ko.remove(3)
        with pytest.raises(InvariantViolationError):
            ko.audit(graph)

    def test_wrong_block_detected(self, korder_and_graph):
        ko, graph, d = korder_and_graph
        ko.remove(3)
        ko.block(2).insert_back(3)  # vertex 3 has core 1, not 2
        with pytest.raises(InvariantViolationError):
            ko.audit(graph)

    def test_stale_deg_plus_detected(self, korder_and_graph):
        ko, graph, d = korder_and_graph
        ko.deg_plus[0] += 1
        with pytest.raises(InvariantViolationError):
            ko.audit(graph)

    def test_lemma_5_1_violation_detected(self):
        # Path a-b-c with b forced first: deg+(b) = 2 > core 1.
        g = DynamicGraph([("a", "b"), ("b", "c")])
        ko = KOrder(core_numbers(g))
        for v in ("b", "a", "c"):
            ko.append(v)
        ko.deg_plus.update({"b": 2, "a": 1, "c": 0})
        with pytest.raises(InvariantViolationError):
            ko.audit(g)


K6 = [(a, b) for a in range(6) for b in range(a + 1, 6)]
TRIANGLE = [("x", "y"), ("y", "z"), ("z", "x")]


def appended_one_by_one(decomposition):
    """The index as one ``append`` per vertex of the order builds it."""
    ko = KOrder(decomposition.core)
    for v in decomposition.order:
        ko.append(v)
    return ko


def block_labels(ko):
    """Each block's OM-list labels, left to right."""
    return {
        k: [node.label for node in ko.block(k)._iter_nodes()]
        for k in ko.block_sizes()
    }


def mixed_graph(seed):
    """A seeded graph over ``str`` and tuple vertices, two of them
    isolated."""
    rng = random.Random(seed)
    names = [f"s{i}" for i in range(15)] + [("t", i) for i in range(15)]
    graph = DynamicGraph(vertices=names + ["iso", ("iso",)])
    for _ in range(25 + 20 * seed):
        u, v = rng.sample(names, 2)
        if not graph.has_edge(u, v):
            graph.add_edge(u, v)
    return graph


class TestBulkBuild:
    """``from_decomposition`` labels each block in one pass; the blocks,
    the core map and every label match vertex-by-vertex appends."""

    @pytest.mark.parametrize(
        "edges, vertices, sizes",
        [
            (K6 + TRIANGLE, ["iso"], {0: 1, 2: 3, 5: 6}),
            (K6, [], {5: 6}),
            ([], [], {}),
        ],
        ids=["levels-0-2-5", "one-block", "empty"],
    )
    def test_from_decomposition(self, edges, vertices, sizes):
        graph = DynamicGraph(edges, vertices=vertices)
        d = korder_decomposition(graph)
        ko = KOrder.from_decomposition(d)
        ko.audit(graph)
        assert ko.order() == d.order
        assert ko.block_sizes() == sizes
        assert ko.core is d.core
        assert block_labels(ko) == block_labels(appended_one_by_one(d))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_from_decomposition_on_mixed_vertices(self, seed):
        graph = mixed_graph(seed)
        d = korder_decomposition(graph)
        ko = KOrder.from_decomposition(d)
        ko.audit(graph)
        assert ko.order() == d.order
        assert ko.block_sizes() == appended_one_by_one(d).block_sizes()
        assert block_labels(ko) == block_labels(appended_one_by_one(d))

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_compute_mcd_matches_a_scan(self, seed):
        graph = mixed_graph(seed)
        core = cores_by_deletion(graph)
        assert compute_mcd(graph, core) == mcd_by_scan(graph, core)
        assert compute_mcd(graph, core)["iso"] == 0

    def test_compute_mcd_on_the_empty_graph(self):
        assert compute_mcd(DynamicGraph(), {}) == {}


# ----------------------------------------------------------------------
# One core map per engine: the k-order orders by the engine's own cores
# ----------------------------------------------------------------------

def assert_one_core_map(engine):
    """The engine's k-order reads its blocks from the engine's core map
    (reading ``korder`` builds a deferred index) and the index audits."""
    assert engine.korder.core is engine.core
    engine.check()


@pytest.mark.parametrize("variant", order_family_variants())
class TestOneCoreMap:
    def test_after_construction(self, variant):
        assert_one_core_map(build_engine(variant, random_gnm(30, 70, seed=1)))

    def test_after_a_run_of_rebuilt_batches_and_the_deferred_build(
        self, variant
    ):
        engine = build_engine(variant, random_gnm(30, 60, seed=2))
        core = engine.core
        adds = absent_edges(engine.graph, 30, 20, seed=3)
        engine.rebuild_batch(Batch.inserts(adds[:10]))
        engine.rebuild_batch(Batch.inserts(adds[10:] + [(5, "new")]))
        engine.rebuild_batch(Batch.removes(adds[:5]))
        assert engine.core is core  # refilled in place, never replaced
        assert_one_core_map(engine)  # the deferred build runs here
        engine.insert_edge(*adds[0])
        assert_one_core_map(engine)

    def test_after_adding_and_removing_vertices(self, variant):
        engine = build_engine(variant, random_gnm(20, 40, seed=4))
        assert engine.add_vertex("iso")
        engine.insert_edge("iso", 0)
        assert_one_core_map(engine)
        engine.remove_vertex("iso")
        engine.remove_vertex(0)
        assert "iso" not in engine.core and 0 not in engine.core
        assert_one_core_map(engine)

    def test_a_core_moved_without_its_vertex_fails_the_audit(self, variant):
        engine = build_engine(variant, random_gnm(20, 40, seed=5))
        engine.check()
        engine._core[7] += 1
        with pytest.raises(InvariantViolationError):
            engine.check()


@pytest.mark.parametrize("name", order_family_engines())
def test_recovered_and_loaded_services_keep_one_core_map(tmp_path, name):
    log = tmp_path / "session.wal"
    graph = random_gnm(20, 40, seed=6)
    svc = CoreService.open(graph, engine=name, log=log, fsync="never")
    svc.apply(Batch.inserts(absent_edges(graph, 20, 8, seed=7)))
    svc.save(tmp_path / "session.json")
    svc.close()
    for restored in (
        CoreService.recover(log, fsync="never"),
        CoreService.load(tmp_path / "session.json"),
    ):
        assert restored.engine_name == name
        assert_one_core_map(restored.engine)
        restored.close()

