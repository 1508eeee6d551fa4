"""Boundary cases of the sequential run schedule, over every order-family
engine and the default engine's generation policies.

Batches run as same-kind runs, one after another
(:meth:`repro.engine.batch.Batch.runs`).  These tests pin what that
schedule must get right on graphs made of several disconnected pockets:

* **independence** — applying per-pocket sub-batches in any order ends
  in the same cores as applying the whole batch;
* **boundaries** — edges that bridge pockets mid-batch, bridge-then-
  remove in one batch, batches over brand-new vertices, vertex removal
  through a bridge;
* **failures** — an invalid op or an injected ``engine.mid_batch``
  crash leaves the index consistent with its graph, and a durable
  session heals the partial batch on recovery;
* **oracle** — hypothesis drives mixed batches over pockets and
  bridges, checked against the per-edge path and recomputation.
"""

import itertools
import json
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from engine_contract import (
    build_engine,
    order_family_engines,
    order_family_variants,
)
from repro.core.decomposition import core_numbers
from repro.core.snapshot import from_snapshot, to_snapshot
from repro.engine import Batch
from repro.errors import EdgeNotFoundError
from repro.graphs.undirected import DynamicGraph
from repro.service import CoreService
from repro.testing import FaultPlan, InjectedFault

ENGINES = order_family_variants()


def pockets_graph(n_pockets=3, size=6, seed=0):
    """Disconnected random pockets; returns (edges, per-pocket edges)."""
    rng = random.Random(seed)
    pockets = []
    for b in range(n_pockets):
        base = b * 100
        verts = range(base, base + size)
        pairs = [(i, j) for i in verts for j in verts if i < j]
        rng.shuffle(pairs)
        pockets.append(pairs[: size + 3])
    return [e for p in pockets for e in p], pockets


def per_edge(name, edges, batch):
    """The same engine family driven one edge at a time, in op order."""
    engine = build_engine(name, DynamicGraph(edges))
    for op in batch:
        if op.kind == "insert":
            engine.insert_edge(*op.edge)
        else:
            engine.remove_edge(*op.edge)
    return engine


def assert_exact(engine):
    """Index audit plus agreement with the from-scratch oracle."""
    engine.check()
    assert engine.core_numbers() == core_numbers(engine.graph)


@pytest.mark.parametrize("name", ENGINES)
class TestIndependence:
    def test_any_pocket_order_matches_the_whole_batch(self, name):
        edges, pockets = pockets_graph(3, size=8, seed=1)
        rng = random.Random(1)
        subs = [Batch.removes(rng.sample(p, 4)) for p in pockets]
        whole = Batch()
        for sub in subs:
            for op in sub:
                whole.remove(*op.edge)
        reference = build_engine(name, DynamicGraph(edges), audit=True)
        reference.maintain_batch(whole)
        expected = reference.core_numbers()
        for permutation in itertools.permutations(range(len(subs))):
            engine = build_engine(name, DynamicGraph(edges), audit=True)
            for index in permutation:
                engine.maintain_batch(subs[index])
            assert engine.core_numbers() == expected

    def test_mixed_batch_matches_per_edge_path(self, name):
        edges, pockets = pockets_graph(4, size=8, seed=3)
        batch = Batch()
        for pocket in pockets:
            for edge in pocket[:4]:
                batch.remove(*edge)
        for u, v in [(0, 1000), (1000, 1001), (200, 300)]:
            batch.insert(u, v)
        engine = build_engine(name, DynamicGraph(edges), audit=True)
        result = engine.maintain_batch(batch)
        assert result.inserts == 3 and result.removes == 16
        assert result.results is None  # removal runs are coalesced
        assert engine.core_numbers() == per_edge(
            name, edges, batch
        ).core_numbers()
        assert_exact(engine)

    def test_interleaved_insert_results_keep_batch_op_order(self, name):
        graph = DynamicGraph(
            [(0, 1), (1, 2), (2, 0), (10, 11), (11, 12), (12, 10)]
        )
        edges = [(0, 3), (10, 13), (1, 3), (11, 13)]  # alternating pockets
        engine = build_engine(name, graph)
        result = engine.maintain_batch(Batch.inserts(edges))
        # Edges are already in canonical orientation, so kept results
        # come back in exactly the batch's op order.
        assert [r.edge for r in result.results] == edges
        assert_exact(engine)


@pytest.mark.parametrize("name", ENGINES)
class TestBoundaries:
    def test_bridge_arriving_mid_batch(self, name):
        """A batch that starts inside one pocket and then bridges two
        keeps every op's effect."""
        edges, pockets = pockets_graph(2)
        batch = (
            Batch()
            .remove(*pockets[0][0])
            .insert(0, 100)  # the bridge, mid-batch
            .remove(*pockets[1][0])
        )
        engine = build_engine(name, DynamicGraph(edges), audit=True)
        engine.maintain_batch(batch)
        assert engine.graph.has_edge(0, 100)
        assert engine.core_numbers() == per_edge(
            name, edges, batch
        ).core_numbers()
        assert_exact(engine)

    def test_bridge_then_remove_in_one_batch(self, name):
        """Insert a bridge and remove it again in one batch: the
        conflicting ops keep their order and cores end where they
        started."""
        edges, _ = pockets_graph(2)
        engine = build_engine(name, DynamicGraph(edges), audit=True)
        before = engine.core_numbers()
        batch = Batch().insert(0, 100).remove(0, 100)
        assert [kind for kind, _ in batch.runs()] == ["insert", "remove"]
        result = engine.maintain_batch(batch)
        assert result.inserts == 1 and result.removes == 1
        assert not engine.graph.has_edge(0, 100)
        assert engine.core_numbers() == before
        assert_exact(engine)

    def test_batch_over_brand_new_vertices(self, name):
        engine = build_engine(name, DynamicGraph(), audit=True)
        batch = Batch.inserts([("a", "b"), ("b", "c"), ("x", "y")])
        result = engine.maintain_batch(batch)
        assert result.inserts == 3
        assert [r.edge for r in result.results] == [op.edge for op in batch]
        assert_exact(engine)

    def test_new_vertex_bridging_two_pockets(self, name):
        edges, _ = pockets_graph(2)
        batch = Batch.inserts([(0, "hub"), (100, "hub")])
        engine = build_engine(name, DynamicGraph(edges), audit=True)
        engine.maintain_batch(batch)
        # Both pockets are 2-cores, so a degree-2 hub joins at level 2.
        assert engine.core_of("hub") == 2
        assert engine.core_numbers() == per_edge(
            name, edges, batch
        ).core_numbers()
        assert_exact(engine)

    def test_vertex_removal_through_a_bridge(self, name):
        edges, _ = pockets_graph(2)
        engine = build_engine(name, DynamicGraph(edges), audit=True)
        engine.insert_edge(0, 100)
        engine.remove_vertex(0)
        assert not engine.graph.has_vertex(0)
        assert not engine.graph.has_edge(0, 100)
        assert_exact(engine)

    def test_add_vertex_is_an_isolated_core_zero(self, name):
        engine = build_engine(name, DynamicGraph([(0, 1)]))
        assert engine.add_vertex("lonely") is True
        assert engine.add_vertex("lonely") is False
        assert engine.core["lonely"] == 0
        engine.maintain_batch(Batch.inserts([("lonely", 0), ("lonely", 1)]))
        assert engine.core["lonely"] == 2
        assert_exact(engine)

    def test_snapshot_round_trip_after_a_mixed_batch(self, name):
        edges = [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 0), (1, 4)]
        engine = build_engine(name, DynamicGraph(edges))
        engine.maintain_batch(
            Batch().insert(4, 5).insert(5, 0).remove(1, 2).insert(3, 0)
        )
        restored = from_snapshot(json.loads(json.dumps(to_snapshot(engine))))
        assert restored.core_numbers() == engine.core_numbers()
        # The index is rebuilt from the graph: mcd is a function of the
        # graph and the cores, deg+ counts each vertex's later neighbours
        # in the rebuilt k-order.
        assert dict(restored.mcd) == dict(engine.mcd)
        position = {v: i for i, v in enumerate(restored.order())}
        assert restored.korder.deg_plus == {
            v: sum(position[w] > position[v] for w in restored.graph.neighbors(v))
            for v in position
        }
        assert_exact(restored)


@pytest.mark.parametrize("name", ENGINES)
class TestFailures:
    """An op or a fault that interrupts the run loop leaves an index
    that describes its graph."""

    #: The engine method that applies the batch.
    path = "maintain_batch"

    def test_missing_edge_raises_and_commits_nothing(self, name):
        edges, _ = pockets_graph(2)
        engine = build_engine(name, DynamicGraph(edges))
        before = engine.core_numbers()
        with pytest.raises(EdgeNotFoundError):
            engine.remove_edge(0, 100)
        with pytest.raises(EdgeNotFoundError):
            getattr(engine, self.path)(Batch.removes([(0, 100)]))
        assert engine.core_numbers() == before
        assert_exact(engine)

    def test_invalid_op_mid_batch_leaves_index_consistent(self, name):
        """An invalid removal raises mid-run; whatever prefix landed, the
        index must still describe its graph exactly."""
        edges, pockets = pockets_graph(3)
        batch = Batch()
        for pocket in pockets:
            for edge in pocket[:4]:
                batch.remove(*edge)
        batch.remove(0, 100)  # never an edge: pockets are disjoint
        engine = build_engine(name, DynamicGraph(edges))
        with pytest.raises(EdgeNotFoundError):
            getattr(engine, self.path)(batch)
        assert_exact(engine)

    def test_mid_batch_fault_leaves_index_usable(self, name):
        engine = build_engine(
            name, DynamicGraph([(1, 2), (2, 3), (10, 11), (11, 12)])
        )
        with FaultPlan(seed=1).crash("engine.mid_batch"):
            with pytest.raises(InjectedFault):
                getattr(engine, self.path)(Batch().insert(3, 1).insert(12, 10))
        assert_exact(engine)
        getattr(engine, self.path)(Batch().insert(3, 1).insert(5, 1))
        assert engine.core_of(1) == 2
        assert_exact(engine)

    def test_fault_between_runs_keeps_the_landed_run(self, name):
        """A fault before the second run leaves the first run applied,
        on both paths alike, and the index consistent with it."""
        engine = build_engine(name, DynamicGraph([(1, 2), (2, 3), (3, 4)]))
        batch = Batch().insert(1, 3).remove(1, 3).insert(2, 4)
        with FaultPlan().crash("engine.mid_batch", hits=2):
            with pytest.raises(InjectedFault):
                getattr(engine, self.path)(batch)
        assert engine.graph.has_edge(1, 3)
        assert not engine.graph.has_edge(2, 4)
        assert_exact(engine)


class TestRebuildFailures(TestFailures):
    """The same failures on the rebuild path: the ops that landed are
    in the graph and the rebuilt index describes it."""

    path = "rebuild_batch"


@pytest.mark.parametrize("name", order_family_engines())
class TestDurableFailures:
    """Durable sessions open engines by registry name, so these run over
    the names only."""

    def test_durable_session_heals_a_mid_batch_fault(self, name, tmp_path):
        log = tmp_path / "s.wal"
        svc = CoreService.open(engine=name, log=log, fsync="never")
        with svc.transaction() as tx:
            for u, v in [(1, 2), (2, 3), (10, 11), (11, 12)]:
                tx.insert(u, v)
        with FaultPlan(seed=1).crash("engine.mid_batch"):
            with pytest.raises(InjectedFault):
                with svc.transaction() as tx:
                    tx.insert(3, 1)
                    tx.remove(11, 12)
        # The batch WAS logged (write-ahead): recovery replays it fully,
        # healing whatever partial application the crash left behind.
        rec = CoreService.recover(log)
        assert rec.engine.graph.has_edge(3, 1)
        assert not rec.engine.graph.has_edge(11, 12)
        rec.engine.check()
        assert rec.cores() == core_numbers(rec.engine.graph)
        rec.close()
        svc.close()


@pytest.mark.parametrize("name", ENGINES)
class TestRunOracle:
    """Hypothesis: mixed batches over pockets and bridges agree with the
    per-edge path and with recomputation."""

    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(seed=st.integers(min_value=0, max_value=2**16), data=st.data())
    def test_runs_match_per_edge_and_recompute(self, name, seed, data):
        rng = random.Random(seed)
        pairs = []
        for b in range(3):
            base = b * 50
            verts = range(base, base + 8)
            pairs.extend((i, j) for i in verts for j in verts if i < j)
        bridges = [(i, 50 + i) for i in range(8)] + [
            (50 + i, 100 + i) for i in range(8)
        ]
        rng.shuffle(pairs)
        m = data.draw(st.integers(10, len(pairs)), label="m")
        base_edges, spare = pairs[:m], pairs[m:] + bridges
        engine = build_engine(
            name, DynamicGraph(base_edges), seed=seed, audit=True
        )
        reference = build_engine(name, DynamicGraph(base_edges), seed=seed)
        for _ in range(data.draw(st.integers(1, 3), label="rounds")):
            batch = Batch()
            present = list(engine.graph.edges())
            for edge in rng.sample(
                present,
                min(len(present), data.draw(st.integers(0, 8), label="rm")),
            ):
                batch.remove(*edge)
            for edge in spare[: data.draw(st.integers(0, 6), label="ins")]:
                if not engine.graph.has_edge(*edge):
                    batch.insert(*edge)
            spare = spare[6:] + spare[:6]  # rotate the insert pool
            if not batch:
                continue
            engine.maintain_batch(batch)
            for op in batch:
                if op.kind == "insert":
                    reference.insert_edge(*op.edge)
                else:
                    reference.remove_edge(*op.edge)
            assert engine.core_numbers() == reference.core_numbers()
            assert engine.core_numbers() == core_numbers(engine.graph)
