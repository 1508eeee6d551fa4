"""Property suite: the read index answers exactly what a scan answers.

Random mixed batch streams commit through a logged ``CoreService`` whose
engine is pinned to one of :data:`BATCH_PATHS`.  The serving front's
read sources each keep a :class:`CoreIndex` that owns its core map: the
session's (``svc.index``, which answers healthy and degraded reads) and
a :class:`LogReplica`'s, tailing the log.  After every commit both maps
must equal the engine's.  After commits the stream picks, each index's
``top``, ``spectrum`` and ``degeneracy`` must also equal
:mod:`kcore_views`' scan over the engine's core map.  Reads are skipped
on the other commits, so the indexes fold commits both while built and
while not yet built.

The streams mix vertex types (``1`` and ``"1"`` are distinct vertices
with the same ``repr`` body) and add fresh vertices whose only edge is
inserted and removed in the same batch, so they sit at core 0 without
ever appearing in a delta.
"""

import random
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from engine_contract import BATCH_PATHS
from repro.analysis import kcore_views
from repro.analysis.kcore_views import CoreIndex
from repro.engine.batch import Batch, normalize_edge
from repro.service import CoreService
from repro.service.replica import LogReplica

#: The named vertices: ints and their string twins.
UNIVERSE = list(range(10)) + [str(i) for i in range(5)]

#: Commits per stream.
COMMITS = 8


def batch_stream(rng: random.Random) -> list[Batch]:
    """Valid mixed batches over :data:`UNIVERSE`, with fresh vertices."""
    present: set = set()
    batches = []
    fresh = 0
    for _ in range(COMMITS):
        batch = Batch()
        for _ in range(rng.randint(1, 12)):
            if present and rng.random() < 0.4:
                edge = rng.choice(sorted(present, key=repr))
                batch.remove(*edge)
                present.discard(edge)
                continue
            u, v = rng.sample(UNIVERSE, 2)
            edge = normalize_edge(u, v)
            if edge not in present:
                batch.insert(*edge)
                present.add(edge)
        if rng.random() < 0.5:
            # A fresh vertex pair, or a fresh vertex on a named one,
            # whose edge comes and goes within the batch.
            fresh += 1
            u = fresh + 100 if fresh % 2 else f"x{fresh}"
            v = rng.choice([-fresh, rng.choice(UNIVERSE)])
            batch.insert(u, v).remove(u, v)
        batches.append(batch)
    return batches


def assert_matches_scan(index: CoreIndex, cores: dict) -> None:
    for n in (0, 1, 10, len(cores) + 5):
        assert kcore_views.top_cores(index, n) == kcore_views.top_cores(
            cores, n
        ), n
    assert kcore_views.core_spectrum(index) == kcore_views.core_spectrum(cores)
    assert kcore_views.degeneracy(index) == kcore_views.degeneracy(cores)


@pytest.mark.parametrize("path", BATCH_PATHS)
@given(
    seed=st.integers(0, 2**32 - 1),
    reads=st.lists(st.booleans(), min_size=COMMITS, max_size=COMMITS),
)
@settings(max_examples=40, deadline=None)
def test_every_source_matches_a_scan(path, seed, reads):
    batches = batch_stream(random.Random(seed))
    with tempfile.TemporaryDirectory() as tmp:
        log = Path(tmp) / "t.wal"
        svc = CoreService.open(log=log)
        svc.engine.apply_batch = getattr(svc.engine, path)
        replica = LogReplica(log)
        replica.engine.apply_batch = getattr(replica.engine, path)
        for batch, read in zip(batches, reads):
            svc.apply(batch)
            replica.refresh()
            cores = dict(svc.engine.core)
            assert svc.index.core == cores
            assert replica.index.core == cores
            if not read and batch is not batches[-1]:
                continue
            for index in (svc.index, replica.index):
                assert_matches_scan(index, cores)
        svc.close()


def test_index_reads_nothing_until_asked():
    index = CoreIndex({1: 1, 2: 1})
    index.fold(Batch().insert(1, 3), {3: 2})  # unbuilt: nothing built
    assert index._counts is None and not index._heaps
    assert kcore_views.core_spectrum(index) == {1: 2, 2: 1}


def test_an_index_owns_a_copy_of_its_map():
    core = {"a": 1, "b": 1}
    index = CoreIndex(core)
    assert index.core == core and index.core is not core
    core["c"] = 5  # the source moves; the index does not
    index.fold(Batch().insert("a", "d"), {"a": 1})
    assert core == {"a": 1, "b": 1, "c": 5}
    assert index.core == {"a": 2, "b": 1, "d": 0}
    assert kcore_views.core_spectrum(index) == {0: 1, 1: 1, 2: 1}


def test_stale_entries_are_compacted():
    # One vertex hops between two levels with no read in between: each
    # return pushes an entry on level 1, 50 in all, and compaction keeps
    # the heap within about twice the level's size.
    core = {v: 1 for v in range(4)}
    index = CoreIndex(core)
    assert kcore_views.top_cores(index, 1) == [(0, 1)]
    for step in range(100):
        up = step % 2 == 0
        core[0] = 2 if up else 1
        index.fold(Batch(), {0: 1 if up else -1})
        assert len(index._heaps[1]) <= 2 * 4 + kcore_views.COMPACT_SLACK
    assert index.core == core
    for n in (1, 4, 5):
        assert kcore_views.top_cores(index, n) == kcore_views.top_cores(
            core, n
        )


def test_an_empty_map_reads_like_a_scan():
    index = CoreIndex({})
    assert_matches_scan(index, {})
    # Vertices that arrive at core 0 need no delta: level 0 is the rest.
    index.fold(Batch().insert("b", 1).remove("b", 1), {})
    assert index.core == {"b": 0, 1: 0}
    assert kcore_views.core_spectrum(index) == {0: 2}
    assert_matches_scan(index, {"b": 0, 1: 0})


def test_a_drained_level_restarts_from_its_arrivals():
    index = CoreIndex({"a": 2, "b": 2, "c": 1})
    assert kcore_views.top_cores(index, 3) == [("a", 2), ("b", 2), ("c", 1)]
    index.fold(Batch(), {"a": -1, "b": -1})
    assert 2 not in index._heaps
    assert kcore_views.degeneracy(index) == 1
    index.fold(Batch().insert("c", "d"), {"c": 1, "d": 2})
    assert [entry[3] for entry in sorted(index._heaps[2])] == ["c", "d"]
    core = {"a": 1, "b": 1, "c": 2, "d": 2}
    assert index.core == core
    assert_matches_scan(index, core)


def test_top_crosses_into_level_zero_in_scan_order():
    # ``1`` and ``"1"`` share a repr body; the type name orders them.
    core = {"1": 0, 1: 0, 2: 1, "z": 0, (0, 1): 0}
    index = CoreIndex(core)
    assert kcore_views.top_cores(index, 3) == [(2, 1), (1, 0), ("1", 0)]
    assert_matches_scan(index, dict(core))
