"""Rebuild or maintain: the per-batch rule of ``apply_batch``.

:meth:`repro.engine.base.CoreMaintainer.apply_batch` rebuilds the index
when ``REBUILD_FACTOR * ops * v >= |V| + |E|`` (``v``: running
``visited`` per op over the maintained batches, 1 before the first) and
runs the incremental run loop otherwise.  These tests pin:

* **the rule** — its threshold on a fresh engine and after maintained
  batches, empty batches, ``naive`` as the "always rebuild" case;
* **what a rebuilt batch reports** — net ``changed``, ``results=None``,
  ``visited = |V|`` and a ``rebuilds`` counter;
* **live state** — ``engine.core`` is one dict for the engine's life,
  so views taken before an update answer for the cores after it, and
  no counter delta is ever negative across maintain → rebuild →
  maintain;
* **both sides of the threshold** — hypothesis drives batches whose
  sizes straddle it and checks cores against ``core_numbers``, net
  deltas against per-edge replay and ``CoreService`` events against a
  maintain-only replay.
"""

import math
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from engine_contract import contract_engines, order_family_engines
from helpers import absent_edges
from repro.analysis.kcore_views import KCoreView
from repro.core.decomposition import core_numbers
from repro.core.simplified import SimplifiedCoreMaintainer
from repro.engine import Batch, make_engine
from repro.engine.base import REBUILD_FACTOR
from repro.engine.batch import core_diff
from repro.graphs.generators import erdos_renyi_gnm
from repro.graphs.undirected import DynamicGraph
from repro.service import CoreService

ENGINES = contract_engines()

#: Engines whose batches follow the rule (``naive`` always rebuilds).
RULED = tuple(name for name in ENGINES if name != "naive")


def _random_graph(n, m, seed):
    return DynamicGraph(erdos_renyi_gnm(n, m, seed=seed), vertices=range(n))


def _threshold(graph):
    """The smallest batch a fresh engine rebuilds for (``v`` = 1)."""
    return math.ceil((graph.n + graph.m) / REBUILD_FACTOR)


class MaintainOnly(SimplifiedCoreMaintainer):
    """The default engine with the rule switched to "never rebuild"."""

    def _rebuild_pays(self, ops):
        return False


# ----------------------------------------------------------------------
# The rule
# ----------------------------------------------------------------------


@pytest.mark.parametrize("name", RULED)
class TestRule:
    def test_fresh_engine_threshold_is_graph_over_factor(self, name):
        graph = _random_graph(40, 90, seed=1)
        engine = make_engine(name, graph)
        at = _threshold(graph)
        assert not engine._rebuild_pays(at - 1)
        assert engine._rebuild_pays(at)
        assert not engine._rebuild_pays(0)

    def test_maintained_batches_set_visits_per_op(self, name):
        graph = _random_graph(40, 90, seed=2)
        engine = make_engine(name, graph)
        result = engine.maintain_batch(
            Batch.inserts(absent_edges(graph, 40, 6, seed=2))
        )
        per_op = result.visited / result.ops
        size = engine.graph.n + engine.graph.m
        for ops in (1, 5, 20, 200):
            assert engine._rebuild_pays(ops) == (
                REBUILD_FACTOR * ops * per_op >= size
            )

    def test_per_edge_updates_leave_the_estimate_alone(self, name):
        """Per-edge updates grow the graph but feed no visits into
        ``v``: the fresh-engine prior of 1 still holds after them."""
        graph = _random_graph(30, 60, seed=3)
        engine = make_engine(name, graph)
        for u, v in absent_edges(graph, 30, 5, seed=3):
            engine.insert_edge(u, v)
        size = engine.graph.n + engine.graph.m
        assert [engine._rebuild_pays(ops) for ops in range(1, 40)] == [
            REBUILD_FACTOR * ops >= size for ops in range(1, 40)
        ]

    def test_apply_batch_takes_the_path_the_rule_names(self, name):
        graph = _random_graph(40, 90, seed=4)
        at = _threshold(graph)
        edges = absent_edges(graph, 40, at, seed=4)
        small = make_engine(name, graph.copy())
        result = small.apply_batch(Batch.inserts(edges[: at - 1]))
        assert "rebuilds" not in result.counters
        big = make_engine(name, graph.copy())
        result = big.apply_batch(Batch.inserts(edges))
        assert result.counters["rebuilds"] == 1
        assert big.rebuilds == 1

    def test_rebuilt_batches_leave_the_estimate_alone(self, name):
        """Pins the rule as it stands: ``v`` averages maintained batches
        only.  After a maintained burst sets it, every batch at the
        threshold it implies rebuilds, and the rebuilds never move ``v``
        back, so later mid-size batches keep rebuilding."""
        graph = _random_graph(40, 90, seed=9)
        engine = make_engine(name, graph)
        spare = absent_edges(graph, 40, 400, seed=9)
        burst = engine.maintain_batch(Batch.inserts(spare[:12]))
        assert burst.visited > 0
        estimate = (engine._maintained_ops, engine._maintained_visited)
        taken = 12
        for _ in range(3):
            size = engine.graph.n + engine.graph.m
            mid = math.ceil(
                size * estimate[0] / (REBUILD_FACTOR * estimate[1])
            )
            result = engine.apply_batch(
                Batch.inserts(spare[taken : taken + mid])
            )
            taken += mid
            assert result.counters["rebuilds"] == 1
            assert (
                engine._maintained_ops, engine._maintained_visited
            ) == estimate
        assert engine.core_numbers() == core_numbers(engine.graph)

    def test_audited_engines_audit_rebuilt_batches(self, name):
        graph = _random_graph(30, 50, seed=10)
        engine = make_engine(name, graph, audit=True)
        audits = []
        engine.check = lambda: audits.append(engine.rebuilds)
        engine.rebuild_batch(Batch.inserts(absent_edges(graph, 30, 20, 10)))
        assert audits == [1]

    def test_empty_batch_is_maintained(self, name):
        engine = make_engine(name, DynamicGraph())
        result = engine.apply_batch(Batch())
        assert result.results == [] and result.changed == {}
        assert engine.rebuilds == 0


def test_naive_always_rebuilds():
    engine = make_engine("naive", _random_graph(40, 90, seed=5))
    for ops in (0, 1, 1000):
        assert engine._rebuild_pays(ops)
    result = engine.apply_batch(Batch().insert(0, 39).remove(0, 39))
    assert result.results is None
    assert result.counters == {"rebuilds": 1}


# ----------------------------------------------------------------------
# What a rebuilt batch reports
# ----------------------------------------------------------------------


@pytest.mark.parametrize("name", ENGINES)
def test_rebuilt_batch_reports_net_delta(name):
    graph = _random_graph(30, 50, seed=6)
    engine = make_engine(name, graph)
    before = engine.core_numbers()
    batch = Batch.inserts(absent_edges(graph, 30, 40, seed=6))
    for edge in list(graph.edges())[:10]:
        batch.remove(*edge)
    result = engine.rebuild_batch(batch)
    assert result.results is None
    assert result.visited == engine.graph.n
    assert (result.inserts, result.removes) == batch.counts()
    assert result.changed == core_diff(before, engine.core_numbers())
    assert engine.core_numbers() == core_numbers(engine.graph)
    if hasattr(engine, "check"):
        engine.check()


def test_core_diff_counts_new_vertices_from_zero():
    assert core_diff({0: 1}, {0: 1, 5: 2}) == {5: 2}
    assert core_diff({0: 2, 1: 2}, {0: 1, 1: 2}) == {0: -1}


# ----------------------------------------------------------------------
# Live state across rebuilds
# ----------------------------------------------------------------------


@pytest.mark.parametrize("name", ENGINES)
class TestLiveViews:
    def test_engine_core_is_one_dict(self, name):
        graph = _random_graph(20, 30, seed=7)
        engine = make_engine(name, graph)
        core = engine.core
        engine.rebuild_batch(Batch.inserts(absent_edges(graph, 20, 30, 7)))
        engine.maintain_batch(Batch.removes(list(engine.graph.edges())[:3]))
        engine.insert_edge(0, 100)
        assert engine.core is core
        assert dict(core) == core_numbers(engine.graph)

    def test_view_taken_before_a_per_edge_update(self, name):
        engine = make_engine(name, DynamicGraph([(0, 1), (1, 2)]))
        view = KCoreView(engine.core, 2)
        assert sorted(view) == []
        engine.insert_edge(0, 2)  # closes a triangle
        assert sorted(view) == [0, 1, 2]

    def test_view_taken_before_a_batch_commit(self, name):
        svc = CoreService.open([(0, 1), (1, 2)], engine=name)
        view = svc.kcore(2)
        assert sorted(view) == []
        with svc.transaction() as tx:
            tx.insert(0, 2)
        assert sorted(view) == sorted(svc.kcore(2)) == [0, 1, 2]
        # A commit large enough to rebuild on every engine.
        with svc.transaction() as tx:
            for v in range(3, 3 + REBUILD_FACTOR):
                tx.insert(v, v + 100)
            tx.insert(1, 3).insert(2, 3).insert(0, 3)
        assert svc.last_receipt.counters.get("rebuilds", 0) == 1
        assert sorted(svc.kcore(3)) == [0, 1, 2, 3]
        assert sorted(view) == [0, 1, 2, 3]
        svc.close()


@pytest.mark.parametrize("name", order_family_engines() + ("trav-2",))
def test_counters_never_move_back(name):
    """maintain → rebuild → maintain: every counter delta is >= 0, the
    cumulative totals never decrease, and ``rebuilds`` counts the one
    rebuild."""
    graph = _random_graph(40, 80, seed=8)
    engine = make_engine(name, graph)
    spare = absent_edges(graph, 40, 80, seed=8)
    totals = [engine._batch_counters()]
    stats = getattr(engine, "sequence_stats", None)
    results = [
        engine.maintain_batch(Batch.inserts(spare[:10])),
        engine.rebuild_batch(
            Batch.inserts(spare[10:60]).remove(*spare[0]).remove(*spare[1])
        ),
        engine.maintain_batch(
            Batch.inserts(spare[60:]).remove(*spare[10]).remove(*spare[11])
        ),
    ]
    totals.append(engine._batch_counters())
    for result in results:
        assert all(delta >= 0 for delta in result.counters.values()), (
            result.counters
        )
    assert "rebuilds" not in results[0].counters
    assert results[1].counters["rebuilds"] == 1
    assert results[2].counters["rebuilds"] == 0
    for key, value in totals[0].items():
        assert totals[1][key] >= value, key
    # What perfbench diffs across commits: the k-order's stats object
    # outlives the rebuilt k-order.
    assert getattr(engine, "sequence_stats", None) is stats
    assert engine.core_numbers() == core_numbers(engine.graph)


# ----------------------------------------------------------------------
# Both sides of the threshold
# ----------------------------------------------------------------------


def _random_batch(rng, graph, n, ops):
    """``ops`` valid mixed ops over ``n`` vertices (some brand new)."""
    batch = Batch()
    present = {(min(u, v), max(u, v)) for u, v in graph.edges()}
    for _ in range(ops):
        if present and rng.random() < 0.35:
            edge = rng.choice(sorted(present))
            present.discard(edge)
            batch.remove(*edge)
        else:
            u, v = rng.randrange(n + 3), rng.randrange(n + 3)
            edge = (min(u, v), max(u, v))
            if u == v or edge in present:
                continue
            present.add(edge)
            batch.insert(*edge)
    return batch


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    name=st.sampled_from(ENGINES),
    seed=st.integers(0, 2**16),
    n=st.integers(4, 30),
    density=st.floats(0.5, 3.0),
    sizes=st.lists(st.floats(0.05, 3.0), min_size=1, max_size=4),
)
def test_both_sides_match_oracles(name, seed, n, density, sizes):
    """Batches sized from a twentieth to three times the fresh-engine
    threshold: cores equal ``core_numbers``, net ``changed`` equals the
    per-edge replay's net delta."""
    rng = random.Random(seed)
    m = min(int(density * n), n * (n - 1) // 2)
    graph = _random_graph(n, m, seed=seed)
    engine = make_engine(name, graph.copy())
    per_edge = make_engine(name, graph.copy())
    for fraction in sizes:
        ops = max(1, round(fraction * _threshold(engine.graph)))
        batch = _random_batch(rng, engine.graph, n, ops)
        before = per_edge.core_numbers()
        result = engine.apply_batch(batch)
        for op in batch:
            update = (per_edge.insert_edge if op.kind == "insert"
                      else per_edge.remove_edge)
            update(*op.edge)
        assert engine.core_numbers() == core_numbers(engine.graph)
        assert engine.core_numbers() == per_edge.core_numbers()
        assert result.changed == core_diff(before, per_edge.core_numbers())


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    seed=st.integers(0, 2**16),
    n=st.integers(6, 30),
    sizes=st.lists(st.floats(0.05, 3.0), min_size=1, max_size=5),
)
def test_service_events_match_a_maintain_only_replay(seed, n, sizes):
    """The default engine under the rule and the same engine that never
    rebuilds publish the same events for every commit."""
    rng = random.Random(seed)
    graph = _random_graph(n, 2 * n, seed=seed)
    ruled = CoreService.open(graph.copy())
    maintained = CoreService(MaintainOnly(graph.copy()))
    rebuilt = 0
    for fraction in sizes:
        ops = max(1, round(fraction * _threshold(ruled.graph)))
        batch = _random_batch(rng, ruled.graph, n, ops)
        got = ruled.apply(batch)
        want = maintained.apply(batch)
        rebuilt += got.counters.get("rebuilds", 0)
        assert [(e.vertex, e.old_core, e.new_core) for e in got.events] == [
            (e.vertex, e.old_core, e.new_core) for e in want.events
        ]
        assert "rebuilds" not in want.counters
    assert ruled.cores() == maintained.cores() == core_numbers(ruled.graph)
    assert rebuilt == ruled.engine.rebuilds


@pytest.mark.parametrize("name", RULED)
def test_straddling_pair_takes_both_paths(name):
    """One batch just under the fresh-engine threshold, one at it: each
    takes its path and both land the per-edge replay's cores."""
    for seed in range(5):
        graph = _random_graph(30, 60, seed=seed)
        at = _threshold(graph)
        edges = absent_edges(graph, 30, at, seed=seed)
        for ops, rebuilds in ((at - 1, 0), (at, 1)):
            engine = make_engine(name, graph.copy())
            replay = make_engine(name, graph.copy())
            result = engine.apply_batch(Batch.inserts(edges[:ops]))
            for u, v in edges[:ops]:
                replay.insert_edge(u, v)
            assert engine.rebuilds == rebuilds
            assert (result.results is None) == bool(rebuilds)
            assert engine.core_numbers() == replay.core_numbers()
            assert engine.core_numbers() == core_numbers(engine.graph)
