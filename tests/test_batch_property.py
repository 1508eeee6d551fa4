"""Property-based agreement tests for the batch pipeline.

Random interleaved insert/remove batches — including batches that add
brand-new vertices — are applied through each batch path (the run loop
and the rebuild that ``apply_batch`` picks between) on every engine and
engine variant of the conformance contract; after every batch each
engine must agree with a from-scratch ``core_numbers`` recomputation of
its own graph (and hence with every other engine).
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
from repro.engine import Batch, make_engine
from repro.graphs.undirected import DynamicGraph

# Every engine and variant, straight from the conformance contract — a
# newly registered engine joins this agreement suite with no edit here.
ENGINES = engine_variants()


def random_batch_stream(seed, n_batches=6, batch_size=25, universe=60):
    """The canonical mixed stream, seeded the way this suite always has
    been (so the fixed-seed cases replay byte-identical histories)."""
    return mixed_batch_stream(
        random.Random(seed), n_batches, batch_size, universe
    )


@pytest.mark.parametrize("path", BATCH_PATHS)
@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_engines_agree_after_each_mixed_batch(seed, path):
    base, batches = random_batch_stream(seed)
    engines = {
        name: build_engine(
            name,
            DynamicGraph(base),
            seed=seed,
            **({"audit": True} if name.startswith("order") else {}),
        )
        for name in ENGINES
    }
    for batch in batches:
        reference = None
        for name, engine in engines.items():
            getattr(engine, path)(batch)
            oracle = core_numbers(engine.graph)
            snapshot = engine.core_numbers()
            assert snapshot == oracle, f"{name} diverged from recompute"
            if reference is None:
                reference = snapshot
            else:
                # Engines may carry isolated vertices the others lack;
                # compare on the union with 0-default.
                keys = reference.keys() | snapshot.keys()
                assert all(
                    reference.get(k, 0) == snapshot.get(k, 0) for k in keys
                ), f"{name} diverged from {ENGINES[0]}"


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
def test_order_engine_batch_matches_recompute(path, seed, data):
    """Hypothesis: arbitrary valid mixed batches keep the order index true."""
    rng = random.Random(seed)
    n = data.draw(st.integers(min_value=4, max_value=20), label="n")
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    rng.shuffle(pairs)
    m = data.draw(st.integers(min_value=0, max_value=len(pairs)), label="m")
    base, spare = pairs[:m], pairs[m:]
    engine = make_engine(
        "order", DynamicGraph(base, vertices=range(n)), audit=True
    )
    batch = Batch()
    for edge in spare[: data.draw(st.integers(0, 12), label="inserts")]:
        batch.insert(*edge)
    for edge in rng.sample(base, min(len(base), data.draw(st.integers(0, 12), label="removes"))):
        batch.remove(*edge)
    getattr(engine, path)(batch)
    assert engine.core_numbers() == core_numbers(engine.graph)
