"""repro — order-based k-core maintenance for dynamic graphs.

A from-scratch Python reproduction of

    Yikai Zhang, Jeffrey Xu Yu, Ying Zhang, Lu Qin.
    "A Fast Order-Based Approach for Core Maintenance." ICDE 2017.

The library maintains the core number of every vertex of an undirected
graph under edge (and vertex) insertions and removals.

The service façade
------------------
:class:`~repro.service.CoreService` is the public entry point: a
long-lived session that commits updates transactionally, answers k-core
queries, and streams :class:`~repro.service.CoreEvent` records to
subscribers (see the top-level README for the full tour):

>>> from repro import CoreService
>>> svc = CoreService.open([(0, 1), (1, 2), (2, 0)])
>>> with svc.transaction() as tx:
...     _ = tx.insert(0, 3).insert(1, 3)
>>> svc.core(3), svc.degeneracy()
(2, 2)

The engine layer
----------------
Four engines implement one interface
(:class:`~repro.engine.base.CoreMaintainer`) and are built by name
through the engine registry, one name per algorithm:

>>> from repro import DynamicGraph, make_engine
>>> engine = make_engine("order", DynamicGraph([(0, 1), (1, 2), (2, 0)]))
>>> engine.core_of(0)
2

* ``"order"`` — :class:`~repro.core.maintainer.OrderedCoreMaintainer`,
  the paper's order-based algorithm (``OrderInsert`` / ``OrderRemoval``)
  over a k-order whose blocks are O(1) order-maintenance lists;
* ``"order-simplified"`` —
  :class:`~repro.core.simplified.SimplifiedCoreMaintainer`, the
  Guo–Sekerinski simplification and the default engine;
* ``"trav-<h>"`` — :class:`~repro.traversal.maintainer.TraversalCoreMaintainer`,
  the traversal baseline (Sariyüce et al.) with hop count ``h``;
* ``"naive"`` — :class:`~repro.naive.maintainer.NaiveCoreMaintainer`,
  full recomputation (oracle).

``audit=True`` is the one engine option: it runs the engine's invariant
audit after every update.

The batch pipeline
------------------
Mixed insert/remove workloads — the regime where order-based maintenance
wins (Fig. 12) — go through :class:`~repro.engine.batch.Batch`:

>>> from repro import Batch
>>> batch = Batch.inserts([(0, 3), (1, 3)]).remove(0, 1)
>>> result = engine.apply_batch(batch)
>>> result.ops
3

Every engine accepts any batch.  A batch small against the graph runs
through the engine's incremental run loop (the order engine coalesces
its ``mcd`` repair per same-kind run); a large one is applied to the
graph and the index is rebuilt once, which is all the naive engine ever
does.
:class:`~repro.engine.batch.BatchResult` aggregates net core changes,
search-space size, per-kind op counts and wall time.

Quickstart
----------
>>> from repro import DynamicGraph, OrderedCoreMaintainer
>>> g = DynamicGraph([(0, 1), (1, 2), (2, 0), (2, 3)])
>>> m = OrderedCoreMaintainer(g)
>>> m.core_of(0), m.core_of(3)
(2, 1)
>>> m.insert_edge(3, 0).changed  # 3 joins the triangle's 2-core
(3,)
"""

from repro._version import __version__
from repro.core.decomposition import core_numbers, korder_decomposition
from repro.core.maintainer import OrderedCoreMaintainer
from repro.engine import (
    Batch,
    BatchResult,
    CoreMaintainer,
    UpdateResult,
    available_engines,
    make_engine,
)
from repro.graphs.datasets import dataset_names, load_dataset
from repro.graphs.temporal import TemporalEdgeStream
from repro.graphs.undirected import DynamicGraph
from repro.naive.maintainer import NaiveCoreMaintainer
from repro.service import CommitReceipt, CoreEvent, CoreService
from repro.streaming import SlidingWindowCoreMonitor
from repro.traversal.maintainer import TraversalCoreMaintainer

__all__ = [
    "Batch",
    "BatchResult",
    "CommitReceipt",
    "CoreEvent",
    "CoreMaintainer",
    "CoreService",
    "DynamicGraph",
    "NaiveCoreMaintainer",
    "OrderedCoreMaintainer",
    "SlidingWindowCoreMonitor",
    "TemporalEdgeStream",
    "TraversalCoreMaintainer",
    "UpdateResult",
    "__version__",
    "available_engines",
    "core_numbers",
    "dataset_names",
    "korder_decomposition",
    "load_dataset",
    "make_engine",
]
