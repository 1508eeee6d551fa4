"""Edge-list readers and writers (SNAP and Konect formats).

The paper's datasets ship as plain-text edge lists:

* SNAP format — ``u<TAB>v`` per line, ``#`` comments;
* Konect format — ``u v [weight [timestamp]]`` per line, ``%`` comments.

Both are read, with transparent gzip based on the ``.gz`` suffix:
:func:`read_edge_list` returns the edges, :func:`read_temporal_edge_list`
a timestamp-ordered stream (the scenario loaders' input).  Directed inputs
are converted to undirected simple graphs the same way the paper does:
direction dropped, duplicates and self-loops skipped.
:func:`write_edge_list` writes the SNAP format.
"""

from __future__ import annotations

import gzip
import io
import math
from pathlib import Path
from typing import IO, Iterable, Iterator, Optional, Union

from repro.errors import EdgeListFormatError
from repro.graphs.temporal import TemporalEdgeStream

Edge = tuple[int, int]
PathLike = Union[str, Path]

_COMMENT_PREFIXES = ("#", "%")

#: Accepted duplicate-edge policies for temporal reads.
DUPLICATE_POLICIES = ("first", "last", "error")


def _open_text(path: PathLike, mode: str) -> IO[str]:
    path = Path(path)
    if path.suffix == ".gz":
        return io.TextIOWrapper(gzip.open(path, mode + "b"))  # type: ignore[arg-type]
    return open(path, mode, encoding="utf-8")


def iter_numbered_edge_lines(
    path: PathLike,
) -> Iterator[tuple[int, list[str]]]:
    """Yield ``(1-based line number, whitespace-split fields)`` of every
    non-comment, non-blank line.  ``#`` (SNAP) and ``%`` (Konect)
    comments and gzip (``.gz``) inputs are handled transparently."""
    with _open_text(path, "r") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line or line.startswith(_COMMENT_PREFIXES):
                continue
            yield lineno, line.split()


def iter_edge_lines(path: PathLike) -> Iterator[list[str]]:
    """Yield whitespace-split fields of every non-comment, non-blank line."""
    for _, fields in iter_numbered_edge_lines(path):
        yield fields


def read_edge_list(path: PathLike) -> list[Edge]:
    """Read a (possibly directed) edge list as undirected simple edges.

    Duplicate edges (in either direction) and self-loops are dropped,
    matching the paper's preprocessing of the SNAP graphs.
    """
    seen: set[Edge] = set()
    edges: list[Edge] = []
    for fields in iter_edge_lines(path):
        u, v = int(fields[0]), int(fields[1])
        if u == v:
            continue
        e = (u, v) if u < v else (v, u)
        if e in seen:
            continue
        seen.add(e)
        edges.append(e)
    return edges


def read_temporal_edge_list(
    path: PathLike,
    time_column: int = 3,
    *,
    strict: bool = False,
    duplicates: str = "first",
) -> TemporalEdgeStream:
    """Read a temporal edge list (Konect or SNAP column conventions).

    ``time_column`` is the 0-based field index of the timestamp — Konect
    uses ``u v weight timestamp`` (column 3, the default), SNAP temporal
    networks use ``u v timestamp`` (column 2).  Lines whose timestamp
    column is absent fall back to their arrival index.  ``#``/``%``
    comments, blank lines and gzip (``.gz``) inputs are tolerated.

    A malformed line (non-integer endpoints, unparsable timestamp)
    raises :class:`~repro.errors.EdgeListFormatError` naming the file
    and 1-based line number.  With ``strict=True`` out-of-order
    timestamps raise too (the file must already be time-sorted); the
    default sorts them.

    ``duplicates`` picks the policy for repeated undirected edges:
    ``"first"`` keeps the earliest occurrence (the paper's
    preprocessing), ``"last"`` keeps the latest timestamp, ``"error"``
    raises on the first repeat.
    """
    if duplicates not in DUPLICATE_POLICIES:
        raise EdgeListFormatError(
            path, 0,
            f"unknown duplicate policy {duplicates!r}; choose from "
            f"{', '.join(DUPLICATE_POLICIES)}",
        )
    occurrence: dict[Edge, int] = {}
    timed: list[tuple[int, int, float]] = []
    last_t: Optional[float] = None
    for lineno, fields in iter_numbered_edge_lines(path):
        if len(fields) < 2:
            raise EdgeListFormatError(
                path, lineno,
                f"expected at least 2 fields, found {len(fields)}",
            )
        try:
            u, v = int(fields[0]), int(fields[1])
        except ValueError:
            raise EdgeListFormatError(
                path, lineno,
                f"endpoints must be integers, got {fields[0]!r} "
                f"{fields[1]!r}",
            ) from None
        if u == v:
            continue
        e = (u, v) if u < v else (v, u)
        if len(fields) > time_column:
            try:
                t = float(fields[time_column])
                if math.isnan(t):
                    raise ValueError
            except ValueError:
                raise EdgeListFormatError(
                    path, lineno,
                    f"timestamp column {time_column} is not a number: "
                    f"{fields[time_column]!r}",
                ) from None
        else:
            t = float(len(timed))
        if strict and last_t is not None and t < last_t:
            raise EdgeListFormatError(
                path, lineno,
                f"timestamps out of order under strict=True: {t} "
                f"after {last_t}",
            )
        last_t = t
        slot = occurrence.get(e)
        if slot is not None:
            if duplicates == "error":
                raise EdgeListFormatError(
                    path, lineno, f"duplicate edge {e}"
                )
            if duplicates == "last":
                timed[slot] = (e[0], e[1], t)
            continue
        occurrence[e] = len(timed)
        timed.append((e[0], e[1], t))
    return TemporalEdgeStream(timed)


def write_edge_list(path: PathLike, edges: Iterable[Edge], header: str = "") -> int:
    """Write edges one per line; returns the number written."""
    count = 0
    with _open_text(path, "w") as handle:
        if header:
            for line in header.splitlines():
                handle.write(f"# {line}\n")
        for u, v in edges:
            handle.write(f"{u}\t{v}\n")
            count += 1
    return count
