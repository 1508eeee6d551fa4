"""Tests for the batch-native removal run (``order_remove_run``).

The contract: one joint cascade per affected ``K``-level plus incremental
``mcd`` upkeep must leave *exactly* the state the per-edge ``OrderRemoval``
path leaves — same cores, a valid k-order, ``deg+`` and ``mcd`` exact —
and both charge one ``mcd`` recomputation per demotion.  The property suite drives random removal
runs against the per-edge path and the from-scratch oracle.  Both run
under every Section VI generation policy, since the policy fixes the
initial k-order the cascade walks.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from engine_contract import POLICY_VARIANTS, build_engine
from repro.core.decomposition import (
    POLICIES,
    core_numbers,
    korder_decomposition,
)
from repro.core.korder import KOrder
from repro.core.maintainer import compute_mcd
from repro.core.removal import order_remove_run
from repro.engine import Batch
from repro.errors import EdgeNotFoundError
from repro.graphs.undirected import DynamicGraph

#: The default engine and its generation-policy variants.
ORDER_VARIANTS = ("order",) + POLICY_VARIANTS


def build_state(edges, vertices=(), policy="small"):
    graph = DynamicGraph(edges, vertices=vertices)
    decomposition = korder_decomposition(graph, policy=policy, seed=0)
    korder = KOrder.from_decomposition(decomposition)
    core = korder.core
    mcd = compute_mcd(graph, core)
    return graph, korder, core, mcd


@pytest.mark.parametrize("policy", POLICIES)
class TestOrderRemoveRun:
    def test_single_edge_run_matches_per_edge_semantics(self, policy):
        """One-edge runs reproduce the Algorithm 4 outcome exactly."""
        edges = [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4)]
        graph, korder, core, mcd = build_state(edges, policy=policy)
        run = order_remove_run(graph, korder, mcd, [(0, 1)])
        assert run.removed == 1
        assert set(run.changed) == {0, 1, 2}
        assert all(delta == -1 for delta in run.changed.values())
        assert core == core_numbers(graph)
        korder.audit(graph)
        assert mcd == compute_mcd(graph, core)

    def test_mcd_is_exact_without_any_caller_refresh(self, policy):
        """The run's whole point: mcd leaves the call already repaired."""
        edges = [(a, b) for a in range(6) for b in range(a + 1, 6)]
        graph, korder, core, mcd = build_state(edges, policy=policy)
        run = order_remove_run(
            graph, korder, mcd, [(0, 1), (2, 3), (4, 5)]
        )
        assert mcd == compute_mcd(graph, core)
        # Targeted accounting: exactly one recomputation per demotion.
        assert run.recomputed == sum(-d for d in run.changed.values())

    def test_multi_level_demotion_in_one_run(self, policy):
        """A batch can sink a vertex through several K-levels at once —
        something no single per-edge removal (|delta| <= 1) can do."""
        edges = [(a, b) for a in range(6) for b in range(a + 1, 6)]  # K6
        graph, korder, core, mcd = build_state(edges, policy=policy)
        assert all(c == 5 for c in core.values())
        victims = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
        run = order_remove_run(graph, korder, mcd, victims)
        assert core == core_numbers(graph)
        assert all(c == 2 for c in core.values())
        assert all(delta == -3 for delta in run.changed.values())
        # The joint cascade walked several levels, highest first.
        assert list(run.levels) == sorted(run.levels, reverse=True)
        assert len(run.levels) >= 2
        korder.audit(graph)
        assert mcd == compute_mcd(graph, core)

    def test_no_cascade_run_costs_no_recomputation(self, policy):
        """Slack-absorbing removals are pure decrements: the counter that
        used to grow by ~2 endpoints per edge stays at zero."""
        # Two squares, each with one diagonal: dropping the diagonals
        # leaves plain 4-cycles, still 2-cores — no core changes.
        edges = [
            (0, 1), (1, 2), (2, 3), (3, 0), (0, 2),
            (4, 5), (5, 6), (6, 7), (7, 4), (4, 6),
        ]
        graph, korder, core, mcd = build_state(edges, policy=policy)
        run = order_remove_run(graph, korder, mcd, [(0, 2), (4, 6)])
        assert run.changed == {} and run.recomputed == 0
        assert core == core_numbers(graph)
        korder.audit(graph)
        assert mcd == compute_mcd(graph, core)

    def test_invalid_edge_mid_run_leaves_index_consistent(self, policy):
        edges = [(0, 1), (1, 2), (2, 0), (2, 3)]
        graph, korder, core, mcd = build_state(edges, policy=policy)
        with pytest.raises(EdgeNotFoundError):
            order_remove_run(
                graph, korder, mcd, [(0, 1), (7, 8), (2, 3)]
            )
        # (0, 1) landed and cascaded; (2, 3) was never reached.
        assert graph.has_edge(2, 3) and not graph.has_edge(0, 1)
        assert core == core_numbers(graph)
        korder.audit(graph)
        assert mcd == compute_mcd(graph, core)

    def test_empty_run(self, policy):
        graph, korder, core, mcd = build_state([(0, 1)], policy=policy)
        run = order_remove_run(graph, korder, mcd, [])
        assert run.removed == 0 and run.changed == {} and run.levels == ()


@pytest.mark.parametrize("name", ORDER_VARIANTS)
class TestRunAgreesWithPerEdgePath:
    """Property: batch-native runs and the per-edge loop are equivalent."""

    @settings(
        max_examples=30,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(seed=st.integers(min_value=0, max_value=2**16), data=st.data())
    def test_run_matches_per_edge_and_oracle(self, name, seed, data):
        rng = random.Random(seed)
        n = data.draw(st.integers(min_value=4, max_value=24), label="n")
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        rng.shuffle(pairs)
        m = data.draw(st.integers(min_value=1, max_value=len(pairs)), label="m")
        base = pairs[:m]
        k = data.draw(st.integers(0, min(len(base), 16)), label="removes")
        victims = rng.sample(base, k)

        batched = build_engine(
            name, DynamicGraph(base, vertices=range(n)),
            seed=seed, audit=True,
        )
        per_edge = build_engine(
            name, DynamicGraph(base, vertices=range(n)), seed=seed
        )
        for edge in victims:
            per_edge.remove_edge(*edge)
        batched.maintain_batch(Batch.removes(victims))

        assert batched.core_numbers() == per_edge.core_numbers()
        assert batched.core_numbers() == core_numbers(batched.graph)
        batched.check()  # audits the k-order and the maintained mcd
        assert dict(batched.mcd) == dict(per_edge.mcd)
        # Both paths recompute mcd once per demotion, nothing else.
        assert batched.mcd_recomputations == per_edge.mcd_recomputations

    def test_deep_cascade_crossing_levels_agrees(self, name):
        """Nested cliques wired to a path: stripping the bridge edges
        cascades across three K-levels; both paths must agree."""
        k5 = [(a, b) for a in range(5) for b in range(a + 1, 5)]
        k3 = [(10, 11), (11, 12), (12, 10)]
        bridges = [(0, 10), (1, 11), (2, 12), (12, 20)]
        tail = [(20, 21), (21, 22)]
        base = k5 + k3 + bridges + tail
        victims = [(0, 10), (1, 11), (10, 11), (20, 21), (0, 1), (0, 2)]
        batched = build_engine(name, DynamicGraph(base), audit=True)
        per_edge = build_engine(name, DynamicGraph(base))
        for edge in victims:
            per_edge.remove_edge(*edge)
        result = batched.maintain_batch(Batch.removes(victims))
        assert batched.core_numbers() == per_edge.core_numbers()
        batched.check()
        # Coalesced runs drop per-edge attribution but keep exact
        # aggregate demotions.
        assert result.results is None
        assert result.changed and all(
            d < 0 for d in result.changed.values()
        )

    def test_batch_and_per_edge_charge_one_recomputation_per_demotion(
        self, name
    ):
        """Both removal paths keep mcd exact inside the cascade, so each
        charges exactly one mcd recomputation per demotion — no per-edge
        refresh pass remains to amortize."""
        rng = random.Random(3)
        n = 80
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        rng.shuffle(pairs)
        base = pairs[:800]
        victims = rng.sample(base, 300)
        batched = build_engine(name, DynamicGraph(base, vertices=range(n)))
        per_edge = build_engine(name, DynamicGraph(base, vertices=range(n)))
        for edge in victims:
            per_edge.remove_edge(*edge)
        result = batched.maintain_batch(Batch.removes(victims))
        assert batched.core_numbers() == per_edge.core_numbers()
        demotions = -sum(result.changed.values())
        assert demotions > 0
        assert result.counters["mcd_recomputations"] == demotions
        assert per_edge.mcd_recomputations == demotions
