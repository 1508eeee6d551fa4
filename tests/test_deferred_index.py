"""A rebuilt batch builds core numbers only; the order index waits.

:meth:`~repro.engine.base.CoreMaintainer.rebuild_batch` on an
order-family engine runs the peel and keeps its order; ``deg+``, the
k-order and ``mcd`` are built from it by the first path that reads or
changes the order index (``OrderFamilyMaintainer._build_deferred``).
These tests pin, on ``order`` and ``order-simplified``:

* **no build on a run of rebuilds** — consecutive rebuilt batches, and
  the reads that never touch the order index (``core``,
  ``sequence_stats``, ``_batch_counters``, the service's ``top`` /
  ``spectrum``), build the k-order and ``mcd`` zero times;
* **every entry point** — each path that reads or changes the order
  index, taken right after a rebuild, leaves the engine exactly as an
  engine that built its index eagerly after the same rebuild;
* **kept ids** — only a run of rebuilt batches holds the peel's vertex
  ids; building an engine, and every other update, leaves none;
* **a fault inside a rebuild** — the maintained batch after it audits
  clean;
* **random interleaving** — hypothesis mixes rebuilt batches,
  maintained batches and per-edge ops against an audited twin and
  ``core_numbers``.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.core.maintainer as maintainer_module
from engine_contract import order_family_engines
from helpers import absent_edges, random_gnm
from repro.core.decomposition import DenseIds, core_numbers
from repro.core.korder import KOrder
from repro.engine import Batch, make_engine
from repro.service import CoreService
from repro.testing.faults import FaultPlan, InjectedFault

ENGINES = order_family_engines()


def _index_state(engine):
    """Everything the order index holds (reading it builds a deferred
    index)."""
    order = engine.order()
    return {
        "core": engine.core_numbers(),
        "order": order,
        "deg_plus": [engine.korder.deg_plus[v] for v in order],
        "mcd": dict(engine.mcd),
    }


def assert_same_index_no_more_work(lazy, eager):
    """``lazy`` holds ``eager``'s index and has paid no counter more.

    A deferred build charges the ``mcd`` it computes: one fewer when an
    isolated vertex left the graph before the build."""
    assert _index_state(lazy) == _index_state(eager)
    paid, reference = lazy._batch_counters(), eager._batch_counters()
    assert paid.keys() == reference.keys()
    assert all(paid[key] <= reference[key] for key in paid), (paid, reference)


@pytest.fixture
def builds(monkeypatch):
    """Count peels, k-order builds and ``mcd`` builds of the engines.

    A peel is either entry point: :func:`dense_peel` over the graph, or
    :meth:`DenseIds.peel` over the ids a rebuilt batch kept."""
    counts = {"peel": 0, "korder": 0, "mcd": 0}
    peel = maintainer_module.dense_peel
    peel_ids = DenseIds.peel
    build_korder = KOrder.from_decomposition.__func__
    build_mcd = maintainer_module.compute_mcd

    def counted_peel(*args, **kwargs):
        counts["peel"] += 1
        return peel(*args, **kwargs)

    def counted_peel_ids(ids):
        counts["peel"] += 1
        return peel_ids(ids)

    def counted_korder(cls, *args, **kwargs):
        counts["korder"] += 1
        return build_korder(cls, *args, **kwargs)

    def counted_mcd(*args):
        counts["mcd"] += 1
        return build_mcd(*args)

    monkeypatch.setattr(maintainer_module, "dense_peel", counted_peel)
    monkeypatch.setattr(DenseIds, "peel", counted_peel_ids)
    monkeypatch.setattr(KOrder, "from_decomposition", classmethod(counted_korder))
    monkeypatch.setattr(maintainer_module, "compute_mcd", counted_mcd)
    return counts


# ----------------------------------------------------------------------
# No build on a run of rebuilds
# ----------------------------------------------------------------------


@pytest.mark.parametrize("name", ENGINES)
class TestRunOfRebuilds:
    def test_rebuilds_build_no_order_index(self, name, builds):
        graph = random_gnm(40, 80, seed=1)
        engine = make_engine(name, graph)
        assert builds == {"peel": 1, "korder": 1, "mcd": 1}
        stats = engine.sequence_stats
        spare = absent_edges(graph, 40, 60, seed=1)
        for step in range(5):
            batch = Batch.inserts(spare[12 * step : 12 * (step + 1)])
            batch.remove(*next(iter(engine.graph.edges())))
            result = engine.rebuild_batch(batch)
            assert result.counters["rebuilds"] == 1
            assert dict(engine.core) == core_numbers(engine.graph)
            assert engine.sequence_stats is stats
            engine._batch_counters()
        assert builds == {"peel": 6, "korder": 1, "mcd": 1}
        # The first update that reads the index builds it once, from the
        # last peel: no extra peel.
        engine.insert_edge(0, 100)
        assert builds == {"peel": 6, "korder": 2, "mcd": 2}
        engine.check()
        assert engine.sequence_stats is stats

    def test_service_commits_and_reads_build_no_order_index(
        self, name, builds
    ):
        graph = random_gnm(40, 80, seed=2)
        svc = CoreService.open(graph, engine=name)
        spare = absent_edges(graph, 40, 60, seed=2)
        for step in range(3):
            receipt = svc.apply(
                Batch.inserts(spare[20 * step : 20 * (step + 1)])
            )
            assert receipt.counters["rebuilds"] == 1
            assert svc.top(5) and svc.spectrum()
            assert svc.degeneracy() == max(core_numbers(svc.graph).values())
        assert builds == {"peel": 4, "korder": 1, "mcd": 1}

    def test_order_engine_charges_mcd_where_it_is_built(self, name):
        graph = random_gnm(40, 80, seed=3)
        engine = make_engine(name, graph)
        spare = absent_edges(graph, 40, 30, seed=3)
        before = engine._batch_counters()
        engine.rebuild_batch(Batch.inserts(spare[:12]))
        engine.rebuild_batch(Batch.inserts(spare[12:24]))
        assert engine._batch_counters().get("mcd_recomputations", 0) == (
            before.get("mcd_recomputations", 0)
        )
        result = engine.maintain_batch(Batch.inserts(spare[24:25]))
        if name == "order":
            # One recomputation per vertex for the deferred build, plus
            # the insertion run's own boundary repair.
            assert result.counters["mcd_recomputations"] > engine.graph.n
        else:
            assert "mcd_recomputations" not in result.counters


# ----------------------------------------------------------------------
# Every entry point after a rebuild
# ----------------------------------------------------------------------

#: Each path that reads or changes the order index, as
#: ``(engine, new edges, present edges) -> result``.
ENTRY_POINTS = {
    "maintain_batch": lambda e, new, old: e.maintain_batch(
        Batch.inserts(new[:3]).remove(*old[0])
    ),
    "maintain_batch-empty": lambda e, new, old: e.maintain_batch(Batch()),
    "insert_edge": lambda e, new, old: e.insert_edge(*new[0]),
    "insert_edge-new-vertex": lambda e, new, old: e.insert_edge(0, "fresh"),
    "remove_edge": lambda e, new, old: e.remove_edge(*old[0]),
    "_insert_run": lambda e, new, old: e._insert_run(new[:4]),
    "_remove_run": lambda e, new, old: e._remove_run(old[:4]),
    "add_vertex": lambda e, new, old: e.add_vertex("fresh"),
    "remove_vertex": lambda e, new, old: e.remove_vertex(old[0][0]),
    "remove_vertex-isolated": lambda e, new, old: e.remove_vertex("iso"),
    "check": lambda e, new, old: e.check(),
    "korder": lambda e, new, old: e.korder.block_sizes(),
    "mcd": lambda e, new, old: dict(e.mcd),
    "order": lambda e, new, old: e.order(),
    "d_in": lambda e, new, old: e.d_in,
    "d_out": lambda e, new, old: dict(e.d_out),
}


def _comparable(result):
    """A path's result without its wall time and per-batch counters:
    the eager twin charged its build to no batch."""
    if hasattr(result, "seconds"):
        return (result.changed, result.visited, result.results)
    return result


@pytest.mark.parametrize(
    "name, path",
    [
        (name, path)
        for name in ENGINES
        for path in sorted(ENTRY_POINTS)
        # d_in / d_out are the simplified engine's views.
        if name == "order-simplified" or path not in ("d_in", "d_out")
    ],
)
def test_every_entry_point_sees_a_freshly_built_index(name, path, builds):
    base = random_gnm(40, 80, seed=4)
    base.add_vertex("iso")
    spare = absent_edges(base, 40, 30, seed=4)
    lazy = make_engine(name, base.copy())
    eager = make_engine(name, base.copy())
    batch = Batch.inserts(spare[:20]).remove(*next(iter(base.edges())))
    for engine in (lazy, eager):
        engine.rebuild_batch(batch)
    # The eager twin builds right after its rebuild, and holds what a
    # fresh engine's constructor builds on the same graph (the fresh
    # engine reads the twin's graph and never updates it).
    eager.korder
    fresh = make_engine(name, eager.graph)
    assert _index_state(fresh) == _index_state(eager)
    assert builds == {"peel": 5, "korder": 4, "mcd": 4}
    present = list(lazy.graph.edges())
    assert present == list(eager.graph.edges())
    new, old = spare[20:], present[::7]
    lazy_result = ENTRY_POINTS[path](lazy, new, old)
    # One build, no peel (``check`` runs compute_mcd again to audit).
    assert (builds["peel"], builds["korder"]) == (5, 5)
    eager_result = ENTRY_POINTS[path](eager, new, old)
    assert builds["korder"] == 5
    assert _comparable(lazy_result) == _comparable(eager_result)
    assert_same_index_no_more_work(lazy, eager)
    assert builds["peel"] == 5
    lazy.check()
    assert lazy.core_numbers() == core_numbers(lazy.graph)


# ----------------------------------------------------------------------
# Vertex ids kept only between rebuilt batches
# ----------------------------------------------------------------------

#: Each update that must drop the ids a rebuilt batch kept, as
#: ``(engine, new edges, present edges) -> result``.
DROPPING_UPDATES = {
    "maintain_batch": ENTRY_POINTS["maintain_batch"],
    "maintain_batch-empty": ENTRY_POINTS["maintain_batch-empty"],
    "insert_edge": ENTRY_POINTS["insert_edge"],
    "remove_edge": ENTRY_POINTS["remove_edge"],
    "add_vertex": ENTRY_POINTS["add_vertex"],
    "remove_vertex": ENTRY_POINTS["remove_vertex"],
}


@pytest.mark.parametrize("name", ENGINES)
def test_only_a_run_of_rebuilt_batches_keeps_vertex_ids(name, tmp_path):
    """A graph that is built or only maintained holds no peel ids: not
    after the constructor, ``CoreService.open`` or ``recover``, not
    after a run's first rebuilt batch, and not after any maintained or
    per-edge update."""
    graph = random_gnm(40, 80, seed=6)
    spare = absent_edges(graph, 40, 40, seed=6)
    assert make_engine(name, graph.copy())._ids is None
    log = tmp_path / "s.wal"
    svc = CoreService.open(graph.copy(), engine=name, log=log, fsync="never")
    assert svc.engine._ids is None
    receipt = svc.apply(Batch.inserts(spare[:15]))
    assert receipt.counters["rebuilds"] == 1
    assert svc.engine._ids is None
    receipt = svc.apply(Batch.inserts(spare[15:30]))
    assert receipt.counters["rebuilds"] == 1
    assert svc.engine._ids is not None
    svc.close()
    recovered = CoreService.recover(log)
    assert recovered.engine._ids is None
    recovered.close()
    for update in DROPPING_UPDATES.values():
        engine = make_engine(name, graph.copy())
        engine.rebuild_batch(Batch.inserts(spare[:10]))
        assert engine._ids is None
        engine.rebuild_batch(Batch.inserts(spare[10:20]))
        assert engine._ids is not None
        present = list(engine.graph.edges())
        update(engine, spare[20:], present[::7])
        assert engine._ids is None
        assert engine.core_numbers() == core_numbers(engine.graph)


# ----------------------------------------------------------------------
# A fault inside a rebuild
# ----------------------------------------------------------------------


@pytest.mark.parametrize("name", ENGINES)
def test_maintained_batch_after_a_faulted_rebuild_audits_clean(
    name, builds
):
    graph = random_gnm(40, 80, seed=5)
    engine = make_engine(name, graph)
    spare = absent_edges(graph, 40, 30, seed=5)
    gone = list(graph.edges())[:6]
    batch = Batch.removes(gone)
    for edge in spare[:20]:
        batch.insert(*edge)
    # The removal run lands, then the fault fires before the insertion
    # run; the rebuild still runs on what landed.
    with FaultPlan().crash("engine.mid_batch", hits=2) as plan:
        with pytest.raises(InjectedFault):
            engine.rebuild_batch(batch)
    assert plan.fired == ["engine.mid_batch"]
    assert engine.rebuilds == 1
    assert not any(engine.graph.has_edge(*e) for e in gone + spare[:20])
    assert dict(engine.core) == core_numbers(engine.graph)
    assert builds["korder"] == 1
    assert engine._ids is None
    engine.maintain_batch(
        Batch.inserts(spare[20:24]).remove(*next(iter(engine.graph.edges())))
    )
    assert builds["korder"] == 2
    engine.check()
    assert engine.core_numbers() == core_numbers(engine.graph)


# ----------------------------------------------------------------------
# Random interleaving
# ----------------------------------------------------------------------

#: Vertices the interleaving draws from (some start outside the graph).
UNIVERSE = 14

_pair = st.tuples(
    st.integers(0, UNIVERSE - 1), st.integers(0, UNIVERSE - 1)
).filter(lambda p: p[0] != p[1])

_step = st.one_of(
    st.tuples(st.just("rebuild"), st.lists(_pair, min_size=1, max_size=12)),
    st.tuples(st.just("maintain"), st.lists(_pair, min_size=0, max_size=6)),
    st.tuples(st.just("edge"), _pair),
    st.tuples(st.just("add_vertex"), st.integers(0, UNIVERSE + 2)),
    st.tuples(st.just("remove_vertex"), st.integers(0, UNIVERSE - 1)),
)


def _toggle_batch(graph, pairs):
    """A valid batch: each pair inserts an absent edge or removes a
    present one, against the graph as the batch leaves it so far."""
    present = set()
    absent = set()
    batch = Batch()
    for u, v in pairs:
        edge = (min(u, v), max(u, v))
        here = edge in present or (
            graph.has_edge(*edge) and edge not in absent
        )
        if here:
            batch.remove(*edge)
            present.discard(edge)
            absent.add(edge)
        else:
            batch.insert(*edge)
            absent.discard(edge)
            present.add(edge)
    return batch


@pytest.mark.parametrize("name", ENGINES)
@settings(
    max_examples=80,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(steps=st.lists(_step, min_size=1, max_size=14), seed=st.integers(0, 9))
def test_random_interleaving_matches_an_audited_twin(name, steps, seed):
    base = random_gnm(10, 16, seed=seed)
    lazy = make_engine(name, base.copy())
    audited = make_engine(name, base.copy(), audit=True)
    for kind, arg in steps:
        if kind == "remove_vertex" and not lazy.graph.has_vertex(arg):
            continue
        outcomes = []
        for engine in (lazy, audited):
            if kind == "rebuild":
                outcome = engine.rebuild_batch(_toggle_batch(engine.graph, arg))
            elif kind == "maintain":
                outcome = engine.maintain_batch(
                    _toggle_batch(engine.graph, arg)
                )
            elif kind == "edge":
                op = "remove" if engine.graph.has_edge(*arg) else "insert"
                outcome = getattr(engine, f"{op}_edge")(*arg)
            elif kind == "add_vertex":
                outcome = engine.add_vertex(arg)
            else:
                outcome = engine.remove_vertex(arg)
            outcomes.append(_comparable(outcome))
        assert outcomes[0] == outcomes[1]
        assert lazy.core_numbers() == core_numbers(lazy.graph)
        if kind != "rebuild":
            # Reading the index would build it; after a rebuild leave it
            # deferred so the next step starts from the peel.
            assert_same_index_no_more_work(lazy, audited)
    lazy.check()
    assert_same_index_no_more_work(lazy, audited)
