"""The engine layer: shared interface, batch pipeline, and registry.

This is the *extension* surface — implement
:class:`~repro.engine.base.CoreMaintainer`, plug it in with
:func:`~repro.engine.registry.register_engine`, and every consumer can
reach it by name.  Applications should not drive engines directly:
:class:`repro.service.CoreService` is the public entry point (sessions,
transactions, queries, event subscriptions) and wraps any engine built
here.

What lives here:

* :class:`~repro.engine.base.CoreMaintainer` /
  :class:`~repro.engine.base.UpdateResult` — the engine interface and
  per-update outcome;
* :class:`~repro.engine.batch.Batch` /
  :class:`~repro.engine.batch.BatchResult` — the mixed insert/remove
  batch pipeline (`engine.apply_batch(batch)`);
* :func:`~repro.engine.registry.make_engine` — build any engine by name
  (``"order-simplified"``, ``"order"``, ``"trav-<h>"``, ``"naive"``;
  each accepts ``seed`` and ``audit``), rejecting options the
  engine does not understand (:func:`~repro.engine.registry.engine_options`
  lists what each accepts); :func:`~repro.engine.registry.register_engine`
  plugs in new ones.
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
    engine_options,
    is_engine_name,
    make_engine,
    register_engine,
)

__all__ = [
    "Batch",
    "BatchOp",
    "BatchResult",
    "CoreMaintainer",
    "DEFAULT_ENGINE",
    "UpdateResult",
    "available_engines",
    "engine_options",
    "is_engine_name",
    "make_engine",
    "normalize_edge",
    "register_engine",
    "vertex_sort_key",
]
