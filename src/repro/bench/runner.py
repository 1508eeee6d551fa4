"""Timed update replay (per-edge and batched) over service sessions.

Engines are constructed through the service façade
(:func:`build_service` → :class:`repro.service.CoreService`); the
per-edge replay helpers time the paper's update algorithms directly on
``service.engine``, while batched replays go through the façade's
commit path.
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

def build_service(
    name: str, graph: DynamicGraph, seed: int = 0, **opts
) -> CoreService:
    """Open a :class:`~repro.service.CoreService` session by engine name.

    The bench drivers' one construction path — extra keyword options
    (``audit``, ``log``, ``fsync``, …) pass through to
    :meth:`CoreService.open`, which rejects the ones it does not
    understand.
    """
    return CoreService.open(graph, engine=name, seed=seed, **opts)


def build_engine(
    name: str, graph: DynamicGraph, seed: int = 0, **opts
) -> CoreMaintainer:
    """Instantiate a bare maintenance engine by registry name.

    Kept for per-edge measurement call sites (and their ``seed``
    convention); equivalent to ``build_service(...).engine``.
    """
    return build_service(name, graph, seed=seed, **opts).engine


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
