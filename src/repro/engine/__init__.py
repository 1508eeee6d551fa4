"""The engine layer: shared interface, batch pipeline, and registry.

Every engine implements :class:`~repro.engine.base.CoreMaintainer` and
is built by name with :func:`~repro.engine.registry.make_engine`; a new
engine is one more name in that table.  Applications should not drive
engines directly: :class:`repro.service.CoreService` is the public
entry point (sessions, transactions, queries, event subscriptions) and
wraps any engine built here.

What lives here:

* :class:`~repro.engine.base.CoreMaintainer` /
  :class:`~repro.engine.base.UpdateResult` — the engine interface and
  per-update outcome;
* :class:`~repro.engine.batch.Batch` /
  :class:`~repro.engine.batch.BatchResult` — the mixed insert/remove
  batch pipeline (`engine.apply_batch(batch)`);
* :func:`~repro.engine.registry.make_engine` — build any engine by name
  (``"order-simplified"``, ``"order"``, ``"trav-<h>"``, ``"naive"``);
  its one option is ``audit``.
"""

from repro.engine.base import CoreMaintainer, UpdateResult
from repro.engine.batch import (
    Batch,
    BatchOp,
    BatchResult,
    normalize_edge,
    vertex_sort_key,
)
from repro.engine.registry import (
    DEFAULT_ENGINE,
    available_engines,
    is_engine_name,
    make_engine,
)

__all__ = [
    "Batch",
    "BatchOp",
    "BatchResult",
    "CoreMaintainer",
    "DEFAULT_ENGINE",
    "UpdateResult",
    "available_engines",
    "is_engine_name",
    "make_engine",
    "normalize_edge",
    "vertex_sort_key",
]
