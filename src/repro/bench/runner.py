"""Timed update replay, per edge and batched.

Callers build a bare engine with :func:`~repro.engine.registry.make_engine`
or a session with :meth:`repro.service.CoreService.open`.  The per-edge
replay helpers time the paper's update algorithms directly on an
engine; batched replays accept either and go through the session's
commit path when given one.
"""

from __future__ import annotations

import time
from typing import Callable, Hashable, Sequence, Union

from repro.analysis.metrics import UpdateLog
from repro.engine.base import CoreMaintainer
from repro.engine.batch import Batch, BatchResult
from repro.graphs.undirected import DynamicGraph
from repro.service import CoreService

Vertex = Hashable
Edge = tuple[Vertex, Vertex]


def run_updates(
    maintainer: CoreMaintainer,
    edges: Sequence[Edge],
    kind: str = "insert",
) -> UpdateLog:
    """Replay ``edges`` one at a time, timing each update.

    ``kind`` is ``"insert"`` or ``"remove"``.  Returns the populated
    :class:`UpdateLog` (total time = the paper's accumulated time metric).
    """
    if kind == "insert":
        op = maintainer.insert_edge
    elif kind == "remove":
        op = maintainer.remove_edge
    else:
        raise ValueError(f"kind must be 'insert' or 'remove', got {kind!r}")
    log = UpdateLog(engine=maintainer.name)
    clock = time.perf_counter
    for u, v in edges:
        started = clock()
        result = op(u, v)
        log.record(result, clock() - started)
    return log


def run_mixed(
    maintainer: CoreMaintainer,
    plan: Sequence[tuple[str, Edge]],
) -> UpdateLog:
    """Replay a mixed insert/remove plan (Fig. 12 with ``p > 0``)."""
    log = UpdateLog(engine=maintainer.name)
    clock = time.perf_counter
    for kind, (u, v) in plan:
        op = maintainer.insert_edge if kind == "insert" else maintainer.remove_edge
        started = clock()
        result = op(u, v)
        log.record(result, clock() - started)
    return log


def run_batches(
    target: Union[CoreService, CoreMaintainer],
    batches: Sequence[Batch],
) -> list[BatchResult]:
    """Replay a sequence of batches through the batch pipeline.

    ``target`` is a :class:`~repro.service.CoreService` (one façade
    commit per batch — receipts minted, subscribers notified) or a bare
    engine (raw ``apply_batch``, the overhead-bench baseline).  Each
    :class:`BatchResult` carries its own wall time; total replay time
    is ``sum(r.seconds for r in results)``.
    """
    if isinstance(target, CoreService):
        return [target.apply(batch).result for batch in batches]
    return [target.apply_batch(batch) for batch in batches]


def time_index_build(
    factory: Callable[[DynamicGraph], CoreMaintainer],
    graph: DynamicGraph,
) -> tuple[CoreMaintainer, float]:
    """Time index creation (Table III), including core decomposition."""
    started = time.perf_counter()
    maintainer = factory(graph)
    return maintainer, time.perf_counter() - started
