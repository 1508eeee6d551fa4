"""Checkpoint / restore for the order-based index.

Table III of the paper measures index *creation* as the one-time cost of
adopting core maintenance.  A long-lived service can avoid paying it on
every restart by snapshotting the maintained state — the graph, the
k-order, ``deg+`` and ``mcd`` — and restoring it without recomputation.

Both order-family engines checkpoint here: the default
:class:`~repro.core.simplified.SimplifiedCoreMaintainer` and the paper's
:class:`~repro.core.maintainer.OrderedCoreMaintainer`.  They hold the
same index, so they share the layout and restore by adopting the stored
fields directly.  The ``engine`` field records which class to rebuild;
snapshots written before it exists restore as ``order``.  Older builds
also wrote a ``"sequence"`` field naming the k-order backend; restore
ignores it, since every backend held the same order.

The snapshot is a plain JSON-serializable dict (versioned), so it can go
to disk, a blob store, or over the wire.  Restoring validates the
invariants (Lemma 5.1 audit plus an ``mcd`` check) before handing back a
live maintainer, so a corrupted or hand-edited snapshot fails loudly
rather than silently corrupting future updates.

Vertices must be JSON-representable for file round-trips; integer and
string vertices are preserved exactly (JSON object keys are strings, so
integer vertices are re-keyed through the order list, which keeps native
types).
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Union

from repro.core.maintainer import (
    OrderedCoreMaintainer,
    OrderFamilyMaintainer,
)
from repro.core.simplified import SimplifiedCoreMaintainer
from repro.errors import StaleIndexError
from repro.graphs.undirected import DynamicGraph
from repro.testing.faults import inject

PathLike = Union[str, Path]

#: Engine classes with snapshot support, by the name a snapshot records.
_ENGINES = {
    cls.name: cls for cls in (OrderedCoreMaintainer, SimplifiedCoreMaintainer)
}

#: Snapshot schema version; bump on layout changes.
SNAPSHOT_VERSION = 1


def to_snapshot(maintainer: OrderFamilyMaintainer) -> dict:
    """Serialize a maintainer's full state to a JSON-friendly dict.

    The k-order is stored as one global vertex list plus per-vertex
    ``core`` / ``deg+`` / ``mcd`` arrays aligned with it, which keeps
    vertex objects out of JSON object keys (preserving their types).
    """
    order = maintainer.order()
    korder = maintainer.korder
    return {
        "version": SNAPSHOT_VERSION,
        "engine": maintainer.name,
        "order": order,
        "core": [maintainer.core[v] for v in order],
        "deg_plus": [korder.deg_plus[v] for v in order],
        "mcd": [maintainer.mcd[v] for v in order],
        "edges": sorted(
            [sorted((u, v), key=repr) for u, v in maintainer.graph.edges()],
            key=repr,
        ),
    }


def from_snapshot(
    snapshot: dict, audit: bool = True
) -> OrderFamilyMaintainer:
    """Rebuild a live maintainer from :func:`to_snapshot` output.

    Raises :class:`StaleIndexError` when the snapshot is malformed (not
    an object, a missing or mistyped field) or its invariants do not
    hold for the stored graph.
    """
    if not isinstance(snapshot, dict):
        raise StaleIndexError(
            f"snapshot is a JSON {type(snapshot).__name__}, not an object"
        )
    if snapshot.get("version") != SNAPSHOT_VERSION:
        raise StaleIndexError(
            f"snapshot field 'version' is {snapshot.get('version')!r}; "
            f"this build reads version {SNAPSHOT_VERSION}"
        )
    # Pre-"engine" snapshots come from builds that snapshotted "order" only.
    engine = snapshot.get("engine", "order")
    cls = _ENGINES.get(engine) if isinstance(engine, str) else None
    if cls is None:
        raise StaleIndexError(
            f"snapshot field 'engine' names unknown engine {engine!r}; "
            f"this build restores: {', '.join(_ENGINES)}"
        )
    try:
        order = snapshot["order"]
        cores = snapshot["core"]
        deg_plus = snapshot["deg_plus"]
        mcd = snapshot["mcd"]
        edges = snapshot["edges"]
        if not (len(order) == len(cores) == len(deg_plus) == len(mcd)):
            raise StaleIndexError(
                "snapshot per-vertex fields have inconsistent lengths: "
                f"order={len(order)}, core={len(cores)}, "
                f"deg_plus={len(deg_plus)}, mcd={len(mcd)}"
            )
        # Rebuild state without triggering a fresh decomposition.
        maintainer = cls.from_index_state(
            DynamicGraph(edges, vertices=order),
            order,
            dict(zip(order, cores)),
            dict(zip(order, deg_plus)),
            dict(zip(order, mcd)),
        )
    except KeyError as exc:
        raise StaleIndexError(f"snapshot missing field {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise StaleIndexError(f"snapshot is malformed: {exc}") from exc
    if audit:
        try:
            maintainer.check()
        except AssertionError as exc:
            raise StaleIndexError(f"snapshot fails invariants: {exc}") from exc
    return maintainer


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


def save_snapshot(maintainer: OrderFamilyMaintainer, path: PathLike) -> None:
    """Write :func:`to_snapshot` output as JSON (atomically)."""
    write_json_atomic(to_snapshot(maintainer), path)


def load_snapshot(
    path: PathLike, audit: bool = True
) -> OrderFamilyMaintainer:
    """Read a JSON snapshot back into a live maintainer."""
    return from_snapshot(json.loads(Path(path).read_text()), audit=audit)
