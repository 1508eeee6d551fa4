"""Run batch scheduler shared by the order-family engines.

:class:`RunScheduledMaintainer` factors the batch pipeline out of the
default order engine so every order-family maintainer — the
``mcd``-maintaining :class:`~repro.core.maintainer.OrderedCoreMaintainer`
and the Guo–Sekerinski
:class:`~repro.core.simplified.SimplifiedCoreMaintainer` — shares one
schedule and differs only in how a *run* commits:

* :meth:`~RunScheduledMaintainer.apply_batch` replays the batch as
  same-kind runs (:meth:`~repro.engine.batch.Batch.runs`), dispatched to
  the subclass hooks :meth:`~RunScheduledMaintainer._insert_run`
  (returns per-op :class:`~repro.engine.base.UpdateResult` s) and
  :meth:`~RunScheduledMaintainer._remove_run` (returns one coalesced
  run result with ``changed`` / ``visited`` aggregates — duck-typed;
  the order family uses :class:`~repro.core.removal.RemovalRunResult`);
* aggregation enforces the shared contract: ``results`` keeps per-op
  detail only for removal-free batches (``results=None`` otherwise).

Runs are applied one after another.  The paper's algorithms are
sequential, and region-partitioned and thread-pool schedules measured
slower than this path on every workload tried (see README.md, "Why
batches run sequentially").

The module lives in :mod:`repro.engine` (not :mod:`repro.core`) because
it knows nothing about any particular index: it only needs the
:class:`~repro.engine.base.CoreMaintainer` surface plus the two run
hooks.
"""

from __future__ import annotations

import time
from typing import Hashable, Iterable

from repro.engine.base import CoreMaintainer, UpdateResult
from repro.engine.batch import Batch, BatchResult, merge_deltas, net_changes
from repro.testing.faults import inject

Vertex = Hashable


class RunScheduledMaintainer(CoreMaintainer):
    """Batch scheduling shared by the order-family engines.

    Subclasses implement :meth:`_insert_run` / :meth:`_remove_run` (the
    family-specific coalesced commits).
    """

    def insert_edges_bulk(self, edges: Iterable) -> list[UpdateResult]:
        """Bulk load: thin wrapper over :meth:`apply_batch`.

        Kept for compatibility with the original insert-only bulk API;
        equivalent to ``apply_batch(Batch.inserts(edges)).results``.
        Batch semantics apply: duplicate input edges are dropped rather
        than raising, and each result's ``edge`` carries the normalized
        orientation — so zip results with the *deduplicated* batch ops,
        not the raw input, when inputs may repeat.
        """
        return self.apply_batch(Batch.inserts(edges)).results

    def apply_batch(self, batch: Batch) -> BatchResult:
        """Apply a mixed batch, coalescing index repair per run.

        :meth:`Batch.runs` reorders conflict-free batches into one
        removal run followed by one insertion run, so a long mixed batch
        pays one coalesced commit per side: insertion runs go through
        :meth:`_insert_run` (per-op results kept), removal runs through
        :meth:`_remove_run` (one aggregate result per run — batch-native
        joint cascades, see :func:`repro.core.removal.order_remove_run`).

        ``BatchResult.results`` keeps per-op detail only for batches
        without removals: removal runs are fully coalesced, so per-edge
        attribution no longer exists (``changed``/``visited`` stay
        exact, aggregated at run level).  When results are kept they are
        in the batch's op order, so zipping them with the batch's ops
        is valid.
        """
        started = time.perf_counter()
        baseline = self._batch_counters()
        results: list[UpdateResult] = []
        removal_runs: list = []
        inserts = removes = 0
        for kind, run_edges in batch.runs():
            inject("engine.mid_batch")
            if kind == "insert":
                results.extend(self._insert_run(run_edges))
                inserts += len(run_edges)
            else:
                removal_runs.append(self._remove_run(run_edges))
                removes += len(run_edges)
        visited = sum(r.visited for r in results)
        changed = net_changes(results)
        for run in removal_runs:
            visited += run.visited
            merge_deltas(changed, run.changed.items())
        return BatchResult(
            engine=self.name,
            inserts=inserts,
            removes=removes,
            changed=changed,
            visited=visited,
            seconds=time.perf_counter() - started,
            results=None if removal_runs else results,
            counters=self._counter_deltas(baseline),
        )

    # ------------------------------------------------------------------
    # Run hooks (family-specific coalesced commits)
    # ------------------------------------------------------------------

    def _insert_run(self, edges) -> list[UpdateResult]:
        """Insert a run of edges; returns one result per op."""
        raise NotImplementedError

    def _remove_run(self, edges):
        """Remove a run of edges through the family's batch-native joint
        cascade; returns one aggregate run result (``removed`` /
        ``changed`` / ``visited`` attributes)."""
        raise NotImplementedError
