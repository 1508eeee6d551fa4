"""The small-policy peel against an oracle that shares no code with it.

``core_numbers``, ``korder_decomposition(policy="small")`` and every
order-family rebuild run the same Batagelj–Zaversnik peel
(:func:`repro.core.decomposition.dense_peel`), so checking one against
another checks nothing.  Here each is checked against
:func:`helpers.cores_by_deletion`, which strips low-degree vertices one
``k`` at a time, on graphs whose vertices are strings and tuples (the
peel never compares them), with isolated vertices, vertex removals and
the empty graph.  Beside the cores, the order must be a k-order
(Lemma 5.1) whose ``deg+`` counts each vertex's later neighbors, and an
engine must pass its own audit.
"""

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
from repro.graphs.undirected import DynamicGraph

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
