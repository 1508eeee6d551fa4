"""Checkpoint / restore for a maintained session: its graph, not its index.

Table III of the paper measures index *creation* as the one-time cost of
adopting core maintenance, and that cost is linear: one static
decomposition plus the k-order build.  Reading a stored index back
measured no faster than building it again, so a snapshot stores only
what every engine's index is a function of: the vertex set and the
edges.  Restoring builds the engine once with
:func:`~repro.engine.registry.make_engine`, which makes snapshots work
for every engine, not only the order family.

Layout (version 2), a plain JSON-serializable dict::

    {"version": 2, "engine": "order-simplified",
     "vertices": [...], "edges": [[u, v], ...]}

``vertices`` lists every vertex, so isolated ones (core 0) survive, and
``engine`` names the registry engine to build.  A compaction snapshot
(:meth:`repro.service.CoreService.compact`) adds the ``receipt`` it
covers.

Version 1 stored the order-family index itself: ``order`` (every vertex,
in k-order) and per-vertex ``core`` / ``deg_plus`` / ``mcd`` arrays
beside ``edges``.  Those snapshots still restore: :func:`read_snapshot`
takes their ``edges`` and the vertex set their ``order`` carries, and
ignores the index fields, which the build recomputes.  A version-1
snapshot without ``engine`` restores as ``order``.

Vertices must be JSON scalars for file round-trips; integer and string
vertices are preserved exactly (they never become JSON object keys).
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Union

from repro.engine.base import CoreMaintainer
from repro.engine.registry import is_engine_name, make_engine
from repro.errors import ReproError, StaleIndexError
from repro.graphs.undirected import DynamicGraph
from repro.testing.faults import inject

PathLike = Union[str, Path]

#: Snapshot schema version written; bump on layout changes.
SNAPSHOT_VERSION = 2

#: The field holding the vertex list, per readable version.
_VERTEX_FIELD = {1: "order", 2: "vertices"}


def to_snapshot(engine: CoreMaintainer) -> dict:
    """An engine's graph and name as a JSON-friendly dict.

    >>> from repro.engine.registry import make_engine
    >>> to_snapshot(make_engine("naive", DynamicGraph([(0, 1)], [2])))
    {'version': 2, 'engine': 'naive', 'vertices': [2, 0, 1], 'edges': [[0, 1]]}
    """
    graph = engine.graph
    return {
        "version": SNAPSHOT_VERSION,
        "engine": engine.name,
        "vertices": list(graph.vertices()),
        "edges": [list(edge) for edge in graph.edges()],
    }


def read_snapshot(snapshot) -> tuple[str, DynamicGraph]:
    """The engine name and the graph a version 1 or 2 snapshot stores.

    Raises :class:`StaleIndexError` when the snapshot is malformed: not
    an object, an unknown version or engine, a missing vertex list or
    ``edges``, or an entry that is not a vertex or a ``[u, v]`` pair.
    """
    if not isinstance(snapshot, dict):
        raise StaleIndexError(
            f"snapshot is a JSON {type(snapshot).__name__}, not an object"
        )
    version = snapshot.get("version")
    if type(version) is not int or version not in _VERTEX_FIELD:
        raise StaleIndexError(
            f"snapshot field 'version' is {version!r}; this build reads "
            f"versions {', '.join(map(str, _VERTEX_FIELD))}"
        )
    # Version-1 snapshots written before "engine" existed came from
    # builds that snapshotted "order" only.
    engine = snapshot.get("engine", "order")
    if not isinstance(engine, str) or not is_engine_name(engine):
        raise StaleIndexError(
            f"snapshot field 'engine' names unknown engine {engine!r}"
        )
    field = _VERTEX_FIELD[version]
    vertices, edges = snapshot.get(field), snapshot.get("edges")
    if type(vertices) is not list:
        raise StaleIndexError(f"snapshot field {field!r} is not a list")
    if type(edges) is not list or not all(
        type(e) is list and len(e) == 2 for e in edges
    ):
        raise StaleIndexError(
            "snapshot field 'edges' is not a list of [u, v] pairs"
        )
    try:
        return engine, DynamicGraph(edges, vertices=vertices)
    except (TypeError, ReproError) as exc:
        raise StaleIndexError(f"snapshot is malformed: {exc}") from exc


def from_snapshot(snapshot) -> CoreMaintainer:
    """Build the engine a snapshot names over the graph it stores."""
    return make_engine(*read_snapshot(snapshot))


def write_json_atomic(payload: dict, path: PathLike) -> None:
    """Write ``payload`` as JSON via write-temp-then-rename.

    The target file is never observable half-written: a crash anywhere
    before the final rename leaves the previous snapshot (or nothing)
    in place, plus a stray ``*.tmp``.  The payload is written in two
    halves around the ``snapshot.mid_write`` crash point so the fault
    matrix can kill a snapshot mid-write and prove exactly that.
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    data = json.dumps(payload).encode()
    with open(tmp, "wb") as fh:
        fh.write(data[: len(data) // 2])
        fh.flush()
        inject("snapshot.mid_write")
        fh.write(data[len(data) // 2:])
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


def save_snapshot(engine: CoreMaintainer, path: PathLike) -> None:
    """Write :func:`to_snapshot` output as JSON (atomically)."""
    write_json_atomic(to_snapshot(engine), path)


def load_snapshot(path: PathLike) -> CoreMaintainer:
    """Read a JSON snapshot back and build its engine."""
    return from_snapshot(json.loads(Path(path).read_text()))
