"""The small-policy peel against an oracle that shares no code with it.

``core_numbers``, ``korder_decomposition(policy="small")`` and every
order-family rebuild run the same FIFO bucket-queue peel
(:func:`repro.core.decomposition.dense_peel`, or its loop over kept id
lists), so checking one against another checks nothing.  Here each is
checked against :func:`helpers.cores_by_deletion`, which strips
low-degree vertices one ``k`` at a time, on graphs whose vertices are
strings and tuples (the peel never compares them), with isolated
vertices, vertex removals and the empty graph.  Beside the cores, the
order must be a k-order (Lemma 5.1) whose ``deg+`` counts each vertex's
later neighbors, and an engine must pass its own audit.

From a run's second rebuilt batch on, the engine peels the vertex ids
that batch numbered (:class:`~repro.core.decomposition.DenseIds`), kept
in step with the graph op by op, and takes ``changed`` by comparing the
new id-aligned cores with the last peel's instead of two core maps; a
run's first batch keeps none.  The last tests drive engines through such
runs, cut by the updates that must drop the ids, and check the kept
lists against the graph and ``changed`` against ``core_diff`` of the
core snapshots around every step.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from engine_contract import order_family_engines
from helpers import cores_by_deletion
from repro.core.decomposition import (
    core_numbers,
    is_valid_korder,
    korder_decomposition,
)
from repro.engine import Batch, make_engine
from repro.engine.batch import core_diff, net_changes
from repro.graphs.undirected import DynamicGraph
from repro.testing.faults import FaultPlan, InjectedFault

POOL = [f"s{i}" for i in range(7)] + [("t", i) for i in range(7)]

PAIRS = [(u, v) for i, u in enumerate(POOL) for v in POOL[i + 1 :]]

SETTINGS = settings(
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
    deadline=None,
)


@st.composite
def graphs(draw):
    """A graph over a drawn subset of :data:`POOL` (possibly empty, with
    isolated vertices), after some ``remove_vertex`` calls."""
    vertices = draw(st.lists(st.sampled_from(POOL), unique=True))
    pairs = [(u, v) for i, u in enumerate(vertices) for v in vertices[i + 1 :]]
    edges = draw(
        st.lists(st.sampled_from(pairs), unique=True, max_size=45)
        if pairs
        else st.just([])
    )
    graph = DynamicGraph(edges, vertices=vertices)
    for vertex in draw(st.lists(st.sampled_from(vertices or POOL))):
        if graph.has_vertex(vertex):
            graph.remove_vertex(vertex)
    return graph


def later_neighbors(graph, order):
    position = {v: i for i, v in enumerate(order)}
    return {
        v: sum(1 for w in graph.adj[v] if position[w] > position[v])
        for v in order
    }


@given(graphs())
@SETTINGS
def test_small_policy_matches_the_deletion_oracle(graph):
    expected = cores_by_deletion(graph)
    d = korder_decomposition(graph, policy="small")
    assert d.core == expected
    assert core_numbers(graph) == expected
    assert sorted(d.order, key=repr) == sorted(graph.vertices(), key=repr)
    assert is_valid_korder(graph, d.core, d.order)
    assert d.deg_plus == later_neighbors(graph, d.order)


@given(graphs(), st.data(), st.sampled_from(order_family_engines()))
@SETTINGS
def test_rebuilt_engine_matches_the_deletion_oracle(graph, data, name):
    """A rebuilt batch, then ``remove_vertex`` calls while the k-order
    is still deferred: the index built afterwards matches the oracle."""
    engine = make_engine(name, graph)
    present = sorted(graph.edges(), key=repr)
    absent = [(u, v) for u, v in PAIRS if not graph.has_edge(u, v)]
    batch = Batch.inserts(
        data.draw(st.lists(st.sampled_from(absent), unique=True, max_size=20))
    )
    if present:
        for u, v in data.draw(
            st.lists(st.sampled_from(present), unique=True, max_size=10)
        ):
            batch.remove(u, v)
    result = engine.rebuild_batch(batch)
    assert result.results is None
    assert dict(engine.core) == cores_by_deletion(engine.graph)
    for vertex in data.draw(st.lists(st.sampled_from(POOL), max_size=3)):
        if engine.graph.has_vertex(vertex):
            engine.remove_vertex(vertex)
    graph = engine.graph
    core = engine.core_numbers()
    assert core == cores_by_deletion(graph)
    order = engine.order()
    assert is_valid_korder(graph, core, order)
    assert dict(engine.korder.deg_plus) == later_neighbors(graph, order)
    engine.check()


#: The steps of a run: forced rebuilt batches (drawn most often, so that
#: runs of them occur), and each update that must drop the kept ids.
STEPS = ("rebuild",) * 4 + (
    "maintain", "edge", "add_vertex", "remove_vertex", "fault",
)


def toggle_batch(graph, pairs):
    """A valid batch: each pair inserts the edge if the graph, as the
    batch leaves it so far, lacks it, and removes it otherwise."""
    batch = Batch()
    flipped = set()
    for u, v in pairs:
        key = frozenset((u, v))
        if graph.has_edge(u, v) != (key in flipped):
            batch.remove(u, v)
        else:
            batch.insert(u, v)
        flipped ^= {key}
    return batch


def kept_adjacency(engine):
    """The engine's kept ids mapped back to vertices, or ``None``."""
    ids = engine._ids
    if ids is None:
        return None
    vx = ids.vx
    assert ids.ids == {v: i for i, v in enumerate(vx)}
    assert all(len(set(nb)) == len(nb) for nb in ids.nb)
    return {vx[i]: {vx[j] for j in nb} for i, nb in enumerate(ids.nb)}


def step(engine, kind, pairs, vertex, hits):
    """Run one step; returns the delta it reported (``None`` when a
    fault cut it)."""
    graph = engine.graph
    if kind == "rebuild":
        return engine.rebuild_batch(toggle_batch(graph, pairs)).changed
    if kind == "maintain":
        return engine.maintain_batch(toggle_batch(graph, pairs)).changed
    if kind == "edge":
        u, v = pairs[0] if pairs else PAIRS[0]
        op = engine.remove_edge if graph.has_edge(u, v) else engine.insert_edge
        return net_changes([op(u, v)])
    if kind == "remove_vertex" and graph.has_vertex(vertex):
        changed = net_changes(engine.remove_vertex(vertex))
        changed.pop(vertex, None)
        return changed
    if kind in ("add_vertex", "remove_vertex"):
        engine.add_vertex(vertex)
        return {}
    # A fault before the hits-th run: the runs before it land, and the
    # rebuild peels what landed.  With fewer runs the batch completes.
    with FaultPlan().crash("engine.mid_batch", hits=hits):
        try:
            return engine.rebuild_batch(toggle_batch(graph, pairs)).changed
        except InjectedFault:
            return None


@pytest.mark.parametrize("name", order_family_engines())
@given(
    graph=graphs(),
    steps=st.lists(
        st.tuples(
            st.sampled_from(STEPS),
            st.lists(st.sampled_from(PAIRS), max_size=12),
            st.sampled_from(POOL),
            st.integers(1, 2),
        ),
        min_size=1,
        max_size=10,
    ),
)
@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[
        HealthCheck.too_slow, HealthCheck.function_scoped_fixture
    ],
)
def test_runs_of_rebuilds_peel_the_kept_ids(name, graph, steps):
    run_steps(name, graph, steps)


@pytest.mark.parametrize("name", order_family_engines())
def test_a_vertex_whose_edge_came_and_went_enters_at_zero(name):
    """A run's second batch inserts and removes the only edge of a new
    vertex: its peel of the kept ids must still enter the vertex into
    the core map, at 0."""
    run_steps(name, DynamicGraph(), [
        ("rebuild", [(POOL[0], POOL[1])], POOL[0], 1),
        ("rebuild", [(POOL[0], POOL[10]), (POOL[0], POOL[10])], POOL[0], 1),
    ])


def run_steps(name, graph, steps):
    """Drive a fresh engine through ``steps``, checking the cores,
    ``changed`` and the kept ids after each."""
    engine = make_engine(name, graph)
    assert engine._ids is None
    # Whether the last step was a rebuilt batch that landed in full.
    rebuilt = False
    for kind, pairs, vertex, hits in steps:
        before = engine.core_numbers()
        changed = step(engine, kind, pairs, vertex, hits)
        after = engine.core_numbers()
        assert after == cores_by_deletion(engine.graph)
        if changed is not None:
            assert changed == core_diff(before, after)
        kept = kept_adjacency(engine)
        landed = kind == "rebuild" or (kind == "fault" and changed is not None)
        if landed and rebuilt:
            assert kept == engine.graph.adj
        else:
            assert kept is None
        rebuilt = landed
        engine.check()


@pytest.mark.parametrize("name", order_family_engines())
def test_a_run_of_rebuilt_batches_diffs_its_cores_by_id(name):
    """Six rebuilt batches in a row, each adding vertices; the second to
    sixth diff their cores by id.  Each batch's ``changed`` is the diff
    of the core snapshots around it, and a vertex whose only edge came
    and went in one batch sits in the core map at 0."""
    engine = make_engine(name, DynamicGraph([(i, i + 1) for i in range(5)]))
    for t in range(6):
        fresh = [("n", t, i) for i in range(4)]
        batch = Batch.inserts(
            [(fresh[i], fresh[j]) for i in range(3) for j in range(i + 1, 3)]
            + [(fresh[0], t), (fresh[1], t + 1), (fresh[3], t)]
        )
        batch.remove(fresh[3], t)
        if t:
            batch.remove(("n", t - 1, 0), ("n", t - 1, 1))
        before = engine.core_numbers()
        result = engine.rebuild_batch(batch)
        after = engine.core_numbers()
        assert (engine._ids is None) == (t == 0)
        assert after == cores_by_deletion(engine.graph)
        assert result.changed == core_diff(before, after)
        assert after[fresh[3]] == 0
        assert fresh[3] not in result.changed
    engine.check()
