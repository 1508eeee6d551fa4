"""Workload construction, mirroring Section VII's experimental setup.

The paper's recipe per dataset:

* temporal graphs (Facebook, Youtube, DBLP): take the **latest** 100,000
  edges as the update stream;
* all others: sample 100,000 edges uniformly at random;
* the base graph is the dataset *without* the update edges (their endpoint
  vertices stay, so engines know about them);
* insertion experiment: insert the stream one edge at a time;
* removal experiment: remove the same edges from the full graph;
* stability (Fig. 12): sample a large pool, split into groups, reinsert
  group by group, optionally removing a random present edge with
  probability ``p`` after each insertion
  (:func:`repro.scenarios.generators.interleaved_plan`);
* scalability (Fig. 11): induced subgraphs on a vertex sample, and edge
  samples keeping incident vertices.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Hashable, Sequence

from repro.engine.batch import Batch
from repro.errors import WorkloadError
from repro.graphs.datasets import LoadedDataset
from repro.graphs.undirected import DynamicGraph
from repro.scenarios.generators import interleaved_plan

Vertex = Hashable
Edge = tuple[Vertex, Vertex]


@dataclass
class UpdateWorkload:
    """A base graph plus the update edges to replay against it."""

    dataset: str
    base_edges: list[Edge] = field(repr=False)
    update_edges: list[Edge] = field(repr=False)
    vertices: set[Vertex] = field(repr=False)

    def base_graph(self) -> DynamicGraph:
        """Fresh base graph (update edges absent, all vertices present)."""
        graph = DynamicGraph(self.base_edges, vertices=self.vertices)
        return graph

    def full_graph(self) -> DynamicGraph:
        """Fresh full graph (updates included) — the removal starting point."""
        graph = DynamicGraph(self.base_edges, vertices=self.vertices)
        for u, v in self.update_edges:
            graph.add_edge(u, v)
        return graph


def make_workload(
    dataset: LoadedDataset,
    n_updates: int,
    seed: int = 0,
) -> UpdateWorkload:
    """Build the paper's update workload for one dataset.

    Temporal datasets contribute their newest ``n_updates`` edges; the
    rest contribute a uniform sample.  ``n_updates`` is capped at half the
    dataset so the base graph keeps its character.
    """
    edges = dataset.edges
    if not edges:
        raise WorkloadError(f"dataset {dataset.name} has no edges")
    n_updates = max(1, min(n_updates, len(edges) // 2))
    if dataset.spec.temporal:
        updates = edges[len(edges) - n_updates :]
        base = edges[: len(edges) - n_updates]
    else:
        rng = random.Random(seed)
        indices = set(rng.sample(range(len(edges)), n_updates))
        updates = [e for i, e in enumerate(edges) if i in indices]
        base = [e for i, e in enumerate(edges) if i not in indices]
    vertices = {u for u, _ in edges} | {v for _, v in edges}
    return UpdateWorkload(
        dataset=dataset.name,
        base_edges=base,
        update_edges=updates,
        vertices=vertices,
    )


def grouped_stream(
    dataset: LoadedDataset,
    n_groups: int,
    group_size: int,
    seed: int = 0,
) -> tuple[UpdateWorkload, list[list[Edge]]]:
    """Fig. 12 stability workload: a pool of sampled edges split into
    ``n_groups`` groups of ``group_size`` (sizes capped by availability).

    Returns the workload (base graph = dataset minus pool) and the groups.
    """
    pool_size = n_groups * group_size
    workload = make_workload(dataset, pool_size, seed=seed)
    pool = workload.update_edges
    per_group = max(1, len(pool) // n_groups)
    groups = [
        pool[i * per_group : (i + 1) * per_group] for i in range(n_groups)
    ]
    groups = [g for g in groups if g]
    return workload, groups


def batches_from_plan(
    plan: Sequence[tuple[str, Edge]],
    batch_size: int,
) -> list[Batch]:
    """Chunk an ordered op plan into :class:`Batch` objects.

    Consecutive slices of at most ``batch_size`` ops become one batch
    each, preserving op order inside a batch (the engine may reschedule
    a conflict-free batch, but cross-batch order is fixed).
    """
    if batch_size < 1:
        raise WorkloadError(f"batch size must be >= 1, got {batch_size}")
    return [
        Batch(plan[i : i + batch_size])
        for i in range(0, len(plan), batch_size)
    ]


def mixed_batch_workload(
    dataset: LoadedDataset,
    n_updates: int,
    batch_size: int,
    p: float = 0.2,
    seed: int = 0,
) -> tuple[UpdateWorkload, list[tuple[str, Edge]], list[Batch]]:
    """The Fig. 12-style mixed stream, both as a plan and as batches.

    Builds the standard update workload, interleaves removals with
    probability ``p`` (removals may target base edges, so every op is
    valid when replayed from the base graph), and chunks the plan into
    batches of ``batch_size`` ops.  Returns
    ``(workload, plan, batches)`` — replaying either the plan per edge or
    the batches through ``apply_batch`` from a fresh base graph yields
    the same final core numbers.
    """
    workload = make_workload(dataset, n_updates, seed=seed)
    plan = interleaved_plan(
        workload.base_edges, workload.update_edges, p, seed=seed
    )
    return workload, plan, batches_from_plan(plan, batch_size)


def sample_vertex_fraction(
    dataset: LoadedDataset, fraction: float, seed: int = 0
) -> list[Edge]:
    """Edges of the subgraph induced by a ``fraction`` vertex sample
    (Fig. 11a/b: vary ``|V|``)."""
    if not 0.0 < fraction <= 1.0:
        raise WorkloadError(f"fraction {fraction} outside (0, 1]")
    vertices = {u for u, _ in dataset.edges} | {v for _, v in dataset.edges}
    rng = random.Random(seed)
    keep = set(rng.sample(sorted(vertices), max(2, int(len(vertices) * fraction))))
    return [(u, v) for u, v in dataset.edges if u in keep and v in keep]


def sample_edge_fraction(
    dataset: LoadedDataset, fraction: float, seed: int = 0
) -> list[Edge]:
    """A uniform ``fraction`` of the edges, incident vertices kept
    (Fig. 11c/d: vary ``|E|``)."""
    if not 0.0 < fraction <= 1.0:
        raise WorkloadError(f"fraction {fraction} outside (0, 1]")
    rng = random.Random(seed)
    count = max(1, int(len(dataset.edges) * fraction))
    indices = set(rng.sample(range(len(dataset.edges)), count))
    return [e for i, e in enumerate(dataset.edges) if i in indices]
