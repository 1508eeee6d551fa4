"""Property suite: the CoreEvent stream is exactly the oracle's story.

Random mixed batch streams (including batches that introduce brand-new
vertices) commit through a ``CoreService`` session; after every commit,
the events delivered to a subscriber must match a from-scratch
``core_numbers`` recomputation of the graph before vs after the commit —
per-vertex old/new core agreement, no duplicate events, no missed
events — on every engine and engine variant of the conformance contract,
through each batch path (run loop and rebuild), and against the naive
engine's own oracle schedule.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from engine_contract import (
    BATCH_PATHS,
    build_engine,
    engine_variants,
    mixed_batch_stream,
)
from repro.core.decomposition import core_numbers
from repro.engine.batch import Batch
from repro.graphs.undirected import DynamicGraph
from repro.service import CoreService

#: Every engine and variant of the conformance contract: the paper's
#: engine under each generation policy, the Guo–Sekerinski no-mcd
#: variant, the traversal baseline at each hop count and the naive
#: oracle must all tell the subscriber the same story.
ENGINES = engine_variants()


def expected_story(before, after):
    """The oracle's events for one commit: vertex -> (old, new)."""
    return {
        v: (before.get(v, 0), after.get(v, 0))
        for v in before.keys() | after.keys()
        if before.get(v, 0) != after.get(v, 0)
    }


def replay_and_check(
    engine_name, seed, n_batches, batch_size, universe, path=None
):
    """Replay a mixed stream through a service and check every commit's
    events; ``path`` pins the engine to one of :data:`BATCH_PATHS`
    (``None`` leaves ``apply_batch``'s rule to pick)."""
    rng = random.Random(seed)
    base, batches = mixed_batch_stream(rng, n_batches, batch_size, universe)
    engine = build_engine(engine_name, DynamicGraph(base), seed=seed)
    if path is not None:
        engine.apply_batch = getattr(engine, path)
    svc = CoreService(engine)
    captured = []
    svc.subscribe(captured.append)
    all_events = []
    for batch in batches:
        before = core_numbers(svc.graph)
        captured.clear()
        receipt = svc.apply(batch)
        after = core_numbers(svc.graph)
        story = expected_story(before, after)

        vertices = [e.vertex for e in captured]
        assert len(set(vertices)) == len(vertices), (
            f"{engine_name}: duplicate events in one commit"
        )
        told = {e.vertex: (e.old_core, e.new_core) for e in captured}
        assert told == story, (
            f"{engine_name}: event stream diverged from the oracle "
            f"(missing {story.keys() - told.keys()}, "
            f"spurious {told.keys() - story.keys()})"
        )
        assert all(e.receipt_id == receipt.receipt_id for e in captured)
        assert tuple(captured) == receipt.events
        all_events.append(list(captured))
    return all_events


@pytest.mark.parametrize("path", BATCH_PATHS)
@pytest.mark.parametrize("engine_name", ENGINES)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_event_stream_matches_oracle_fixed_streams(engine_name, seed, path):
    replay_and_check(
        engine_name, seed, n_batches=6, batch_size=25, universe=60,
        path=path,
    )


@pytest.mark.parametrize("path", BATCH_PATHS)
@pytest.mark.parametrize("engine_name", ENGINES)
@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    n_batches=st.integers(min_value=1, max_value=5),
    batch_size=st.integers(min_value=1, max_value=30),
    universe=st.integers(min_value=8, max_value=48),
)
def test_event_stream_matches_oracle_property(
    engine_name, path, seed, n_batches, batch_size, universe
):
    """Hypothesis: arbitrary valid mixed streams tell the exact story."""
    replay_and_check(
        engine_name, seed, n_batches, batch_size, universe, path=path
    )


def test_backends_emit_identical_event_sequences():
    """Every engine on every batch path must agree event-for-event, not
    just core-for-core: events are vertex-sorted per commit, so the
    schedule (engine, run coalescing, rebuild) must not leak into the
    story."""
    runs = [(name, path) for name in ENGINES for path in BATCH_PATHS]
    streams = [
        replay_and_check(
            name, 7, n_batches=5, batch_size=20, universe=40, path=path
        )
        for name, path in runs
    ]
    for run, stream in zip(runs[1:], streams[1:]):
        assert stream == streams[0], (
            f"{run} told a different story than {runs[0]}"
        )


def test_naive_engine_tells_the_same_story():
    """The event layer is engine-agnostic: the oracle engine agrees."""
    order = replay_and_check(
        "order", 11, n_batches=4, batch_size=15, universe=30,
        path="maintain_batch",
    )
    naive = replay_and_check(
        "naive", 11, n_batches=4, batch_size=15, universe=30
    )
    assert order == naive


# ---------------------------------------------------------------------------
# Bounded (pull-mode) subscriptions
# ---------------------------------------------------------------------------


class TestBoundedSubscriptions:
    """Pull-mode max_pending buffers, validated against the oracle."""

    def test_pull_mode_drains_the_full_story(self):
        """A bounded pull subscription with room sees exactly what an
        unbounded callback subscription sees — the event-oracle suite's
        contract carries over."""
        rng = random.Random(3)
        base, batches = mixed_batch_stream(rng, 4, 15, 30)
        svc = CoreService.open(DynamicGraph(base), engine="order")
        captured = []
        svc.subscribe(captured.append)
        pulled = svc.subscribe(max_pending=10_000)
        for batch in batches:
            captured.clear()
            svc.apply(batch)
            got = pulled.take()
            assert list(got) == captured
            assert pulled.pending == 0
        assert pulled.dropped_events == 0
        svc.close()

    def test_drop_oldest_keeps_newest_and_counts(self):
        svc = CoreService.open(engine="order")
        sub = svc.subscribe(max_pending=3)
        for i in range(8):
            svc.insert(100 + i, 200 + i)  # two events per commit
        assert sub.pending == 3
        assert sub.dropped_events == 16 - 3
        newest = sub.take()
        # The survivors are the *latest* events, in delivery order.
        assert [e.receipt_id for e in newest] == [7, 8, 8]
        svc.close()

    def test_takes_a_callback_or_a_bound(self):
        from repro.errors import ServiceError

        svc = CoreService.open(engine="order")
        with pytest.raises(ServiceError, match="callback"):
            svc.subscribe()  # neither push nor pull
        with pytest.raises(ServiceError, match="not both"):
            svc.subscribe(lambda e: None, max_pending=4)
        with pytest.raises(ServiceError, match="max_pending"):
            svc.subscribe(max_pending=0)
        svc.close()

    def test_take_limits_and_close_keeps_buffered(self):
        svc = CoreService.open(engine="order")
        sub = svc.subscribe(max_pending=100)
        svc.insert(1, 2)
        svc.insert(3, 4)
        first = sub.take(1)
        assert len(first) == 1
        sub.close()
        # Closing stops new deliveries but buffered events stay readable.
        rest = sub.take()
        assert len(rest) == 3
        svc.insert(5, 6)
        assert list(sub.take()) == []
        svc.close()

    def test_min_k_filter_composes_with_bounds(self):
        svc = CoreService.open(engine="order")
        sub = svc.subscribe(min_k=2, max_pending=50)
        svc.insert(0, 1)            # cores stay below 2: filtered out
        assert sub.pending == 0
        svc.apply(Batch.inserts([(1, 2), (2, 0)]))  # triangle: crosses 2
        events = sub.take()
        assert {e.vertex for e in events} == {0, 1, 2}
        assert all(e.new_core == 2 for e in events)
        svc.close()
