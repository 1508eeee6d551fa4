"""End-to-end validation of a maintenance engine's state.

Downstream users embedding a maintainer in a long-lived service want a
cheap way to assert, at checkpoints, that the incremental state still
matches ground truth.  :func:`validate_maintainer` recomputes everything
from scratch and diffs it against the engine — core numbers for any
engine, plus index-specific invariants for the engines that expose them
(the k-order's Lemma 5.1 audit, the traversal hierarchy definitions).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, Mapping

from repro.engine.base import CoreMaintainer
from repro.core.decomposition import core_numbers
from repro.graphs.undirected import DynamicGraph

Vertex = Hashable


@dataclass
class ValidationReport:
    """Outcome of one validation pass."""

    engine: str
    ok: bool = True
    core_mismatches: dict[Vertex, tuple[int, int]] = field(default_factory=dict)
    index_errors: list[str] = field(default_factory=list)


def diff_cores(
    maintained: Mapping[Vertex, int], truth: Mapping[Vertex, int]
) -> dict[Vertex, tuple[int, int]]:
    """Vertices where two core maps disagree, as ``{v: (got, want)}``."""
    out: dict[Vertex, tuple[int, int]] = {}
    for v, want in truth.items():
        got = maintained.get(v)
        if got != want:
            out[v] = (got if got is not None else -1, want)
    for v in maintained:
        if v not in truth:
            out[v] = (maintained[v], -1)
    return out


def validate_maintainer(engine: CoreMaintainer) -> ValidationReport:
    """Recompute ground truth and audit engine-specific invariants.

    Costs one full core decomposition (``O(m + n)``) plus index audits —
    intended for checkpoints and tests, not per-update use.
    """
    report = ValidationReport(engine=engine.name)
    truth = core_numbers(engine.graph)
    report.core_mismatches = diff_cores(engine.core, truth)
    if report.core_mismatches:
        report.ok = False
    check = getattr(engine, "check", None)
    if callable(check):
        try:
            check()
        except AssertionError as exc:  # InvariantViolationError included
            report.ok = False
            report.index_errors.append(str(exc))
    return report


def validate_against_reference(
    engine: CoreMaintainer, reference: DynamicGraph
) -> ValidationReport:
    """Additionally verify the engine's graph matches a reference graph.

    Useful when the caller mirrors updates into a shadow structure and
    wants to confirm nothing was dropped or duplicated.
    """
    report = validate_maintainer(engine)
    graph = engine.graph
    if graph.n != reference.n or graph.m != reference.m:
        report.ok = False
        report.index_errors.append(
            f"graph size mismatch: engine (n={graph.n}, m={graph.m}) "
            f"vs reference (n={reference.n}, m={reference.m})"
        )
        return report
    for v in reference.vertices():
        if not graph.has_vertex(v) or graph.adj[v] != reference.adj[v]:
            report.ok = False
            report.index_errors.append(f"adjacency differs at vertex {v!r}")
            break
    return report
