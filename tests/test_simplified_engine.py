"""The simplified order-based engine (Guo & Sekerinski).

Beyond the cross-engine agreement suites (``test_batch_property``,
``test_service_events``) this pins the engine's *protocol*: it stores
the same index as ``order`` (``mcd`` next to ``deg+``) and exposes
``d_in = mcd - d_out`` as a view, it runs the same kernel — so every
update reports exactly what ``order`` reports — batch counters report
``candidate_visits`` instead of ``mcd_recomputations``, and snapshots
name their engine, so a restore rebuilds the same engine.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.decomposition import core_numbers
from repro.core.maintainer import OrderedCoreMaintainer, compute_mcd
from repro.core.simplified import SimplifiedCoreMaintainer, compute_d_in
from repro.core.snapshot import from_snapshot, to_snapshot
from repro.engine import Batch, make_engine
from repro.errors import StaleIndexError
from repro.graphs.undirected import DynamicGraph
from repro.service import CoreService

from engine_contract import BATCH_PATHS


def random_gnm(n, m, seed=0):
    rng = random.Random(seed)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    rng.shuffle(pairs)
    return pairs[:m], pairs[m:]


class TestRegistryFamily:
    def test_base_name_resolves(self):
        graph = DynamicGraph([(0, 1), (1, 2), (2, 0)])
        engine = make_engine("order-simplified", graph.copy())
        assert isinstance(engine, SimplifiedCoreMaintainer)
        assert engine.name == "order-simplified"


class TestNoMcdProtocol:
    def test_mcd_is_stored_and_d_in_derived(self):
        edges, spare = random_gnm(15, 35, seed=1)
        engine = make_engine("order-simplified", DynamicGraph(edges))
        for e in spare[:6]:
            engine.insert_edge(*e)
        for e in edges[:6]:
            engine.remove_edge(*e)
        # mcd is the stored index, not rebuilt on each access ...
        assert engine.mcd is engine.mcd
        assert engine.mcd == compute_mcd(engine.graph, engine.core)
        # ... d_in is its read-only view mcd - d_out ...
        assert engine.d_in == compute_d_in(
            engine.graph, engine.core, engine.order()
        )
        # ... and no repair pass exists to count.
        assert not hasattr(engine, "mcd_recomputations")

    def test_degree_identity_holds_under_updates(self):
        edges, spare = random_gnm(18, 40, seed=2)
        engine = make_engine(
            "order-simplified", DynamicGraph(edges), audit=True
        )
        for e in spare[:8]:
            engine.insert_edge(*e)
        for e in edges[:8]:
            engine.remove_edge(*e)
        mcd = compute_mcd(engine.graph, engine.core)
        for v in engine.core:
            assert engine.d_in[v] + engine.d_out[v] == mcd[v]
        assert engine.d_in == compute_d_in(
            engine.graph, engine.core, engine.order()
        )

    def test_batch_counters_report_candidate_visits(self):
        edges, spare = random_gnm(16, 30, seed=3)
        engine = make_engine("order-simplified", DynamicGraph(edges))
        result = engine.maintain_batch(
            Batch.inserts(spare[:6]).remove(*edges[0]).remove(*edges[1])
        )
        assert "candidate_visits" in result.counters
        assert "mcd_recomputations" not in result.counters
        assert result.counters["candidate_visits"] >= 0
        assert "order_queries" in result.counters

    def test_counters_are_per_batch_deltas(self):
        edges, spare = random_gnm(16, 30, seed=4)
        engine = make_engine("order-simplified", DynamicGraph(edges))
        first = engine.maintain_batch(Batch.inserts(spare[:8]))
        second = engine.maintain_batch(Batch.removes(spare[:8]))
        totals = engine._batch_counters()
        assert totals["candidate_visits"] == (
            first.counters.get("candidate_visits", 0)
            + second.counters.get("candidate_visits", 0)
        )

    def test_vertex_lifecycle(self):
        engine = make_engine(
            "order-simplified", DynamicGraph([(0, 1), (1, 2), (2, 0)]),
            audit=True,
        )
        assert engine.add_vertex("iso")
        assert not engine.add_vertex("iso")
        engine.insert_edge("iso", 0)
        engine.remove_vertex(1)
        assert engine.core_numbers() == core_numbers(engine.graph)
        assert "iso" in engine.d_in and 1 not in engine.d_in


@pytest.mark.parametrize("path", BATCH_PATHS)
@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    data=st.data(),
)
def test_simplified_matches_recompute(path, seed, data):
    """Hypothesis: arbitrary mixed per-edge streams keep the index true,
    with the full d_in/d_out audit on."""
    rng = random.Random(seed)
    n = data.draw(st.integers(min_value=4, max_value=18), label="n")
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    rng.shuffle(pairs)
    m = data.draw(st.integers(min_value=0, max_value=len(pairs)), label="m")
    base, spare = pairs[:m], pairs[m:]
    engine = make_engine(
        "order-simplified",
        DynamicGraph(base, vertices=range(n)),
        audit=True,
    )
    batch = Batch()
    for edge in spare[: data.draw(st.integers(0, 10), label="inserts")]:
        batch.insert(*edge)
    removes = data.draw(st.integers(0, 10), label="removes")
    for edge in rng.sample(base, min(len(base), removes)):
        batch.remove(*edge)
    getattr(engine, path)(batch)
    assert engine.core_numbers() == core_numbers(engine.graph)


class TestSnapshot:
    def test_round_trip_preserves_engine_and_state(self, tmp_path):
        edges, spare = random_gnm(14, 30, seed=6)
        svc = CoreService.open(edges, engine="order-simplified")
        path = tmp_path / "snap.json"
        svc.save(path)
        restored = CoreService.load(path)
        assert restored.engine_name == "order-simplified"
        assert isinstance(restored.engine, SimplifiedCoreMaintainer)
        assert restored.cores() == svc.cores()
        assert restored.engine.order() == svc.engine.order()
        # The restored index is live: updates keep it true.
        restored.apply(Batch.inserts(spare[:5]))
        restored.engine.check()
        assert restored.cores() == core_numbers(restored.graph)

    def test_index_matches_order_engine(self):
        edges, _ = random_gnm(30, 70, seed=8)
        order = OrderedCoreMaintainer(DynamicGraph(edges))
        simplified = SimplifiedCoreMaintainer(DynamicGraph(edges))
        assert simplified.order() == order.order()
        assert simplified.korder.deg_plus == order.korder.deg_plus
        assert dict(simplified.mcd) == dict(order.mcd)
        assert to_snapshot(order)["engine"] == "order"
        assert to_snapshot(simplified)["engine"] == "order-simplified"

    def test_dispatch_defaults_to_order_engine(self):
        edges, _ = random_gnm(10, 18, seed=7)
        snapshot = to_snapshot(OrderedCoreMaintainer(DynamicGraph(edges)))
        assert snapshot["engine"] == "order"
        # Pre-"engine" snapshots (older layout) restore as the default.
        del snapshot["engine"]
        assert isinstance(from_snapshot(snapshot), OrderedCoreMaintainer)

    def test_unknown_engine_field_fails_loudly(self):
        snapshot = to_snapshot(
            SimplifiedCoreMaintainer(DynamicGraph([(0, 1)]))
        )
        assert snapshot["engine"] == "order-simplified"
        snapshot["engine"] = "order-quantum"
        with pytest.raises(StaleIndexError, match="order-quantum"):
            from_snapshot(snapshot)

    def test_non_order_family_engines_round_trip(self, tmp_path):
        edges, spare = random_gnm(14, 30, seed=6)
        svc = CoreService.open(edges, engine="trav-2")
        path = tmp_path / "snap.json"
        svc.save(path)
        restored = CoreService.load(path)
        assert restored.engine_name == "trav-2"
        assert restored.cores() == svc.cores()
        restored.apply(Batch.inserts(spare[:5]))
        assert restored.cores() == core_numbers(restored.graph)


class TestKernelParity:
    """Both order engines run one kernel, so on the same stream they
    report the same update, field for field; only the ``mcd`` upkeep
    around the kernel differs."""

    @pytest.mark.parametrize("seed", range(6))
    def test_per_edge_updates_match(self, seed):
        rng = random.Random(seed)
        edges, spare = random_gnm(24, 60, seed=seed)
        order = OrderedCoreMaintainer(DynamicGraph(edges))
        simplified = SimplifiedCoreMaintainer(DynamicGraph(edges))
        live = list(edges)
        for _ in range(80):
            if spare and (not live or rng.random() < 0.5):
                edge = spare.pop(rng.randrange(len(spare)))
                live.append(edge)
                op = "insert_edge"
            else:
                edge = live.pop(rng.randrange(len(live)))
                spare.append(edge)
                op = "remove_edge"
            expected = getattr(order, op)(*edge)
            got = getattr(simplified, op)(*edge)
            assert (got.k, got.changed, got.visited, got.evicted) == (
                expected.k, expected.changed, expected.visited,
                expected.evicted,
            )
        order.check()
        simplified.check()
        assert simplified.order() == order.order()

    @pytest.mark.parametrize("seed", range(6))
    def test_batches_match(self, seed):
        rng = random.Random(seed)
        edges, spare = random_gnm(24, 60, seed=seed)
        order = OrderedCoreMaintainer(DynamicGraph(edges))
        simplified = SimplifiedCoreMaintainer(DynamicGraph(edges))
        live = list(edges)
        for _ in range(12):
            removes = rng.sample(live, min(len(live), rng.randrange(6)))
            inserts = rng.sample(spare, min(len(spare), rng.randrange(6)))
            batch = Batch.removes(removes)
            for edge in inserts:
                batch.insert(*edge)
            live = [e for e in live if e not in removes] + inserts
            spare = [e for e in spare if e not in inserts] + removes
            expected = order.maintain_batch(batch)
            got = simplified.maintain_batch(batch)
            assert got.visited == expected.visited
            assert list(got.changed.items()) == list(
                expected.changed.items()
            )
        order.check()
        simplified.check()
        assert simplified.order() == order.order()
