"""Benchmark harness: workloads, runners and the paper's experiments.

Every table and figure of the paper's evaluation section has a
corresponding function in :mod:`repro.bench.experiments`; the modules in
``benchmarks/`` (pytest-benchmark) and the CLI both drive those functions.
Mixed update streams can be replayed per edge (:func:`run_updates` /
:func:`run_mixed`) or through the engine batch pipeline
(:func:`batches_from_plan` + :func:`run_batches`).
"""

from repro.bench.workloads import (
    UpdateWorkload,
    batches_from_plan,
    grouped_stream,
    make_workload,
    mixed_batch_workload,
    sample_edge_fraction,
    sample_vertex_fraction,
)
from repro.bench.runner import (
    run_batches,
    run_mixed,
    run_updates,
    time_index_build,
)

__all__ = [
    "UpdateWorkload",
    "batches_from_plan",
    "grouped_stream",
    "make_workload",
    "mixed_batch_workload",
    "run_batches",
    "run_mixed",
    "run_updates",
    "sample_edge_fraction",
    "sample_vertex_fraction",
    "time_index_build",
]
