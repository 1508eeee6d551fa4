"""Recorded scenario traces: a durable, framed-JSONL stream artifact.

A trace file makes any scenario — generated, loaded from a real temporal
network, or captured live — a replayable artifact that benches, CI and
the hypothesis suites can share.  The framing reuses the write-ahead
log's (:mod:`repro.service.wal`) crash-evident line format::

    <length> <crc32-hex> <payload>\\n

so a truncated or corrupted frame is *detected* (length or checksum
mismatch) rather than silently mis-parsed.  Traces are read with the
WAL's one frame walker (:func:`~repro.service.wal.frames`) under their
own stop policy: unlike the WAL there is no torn-tail repair — a trace
is an immutable artifact, so any bad frame, and any CRC-valid record
with a missing or mistyped field, raises
:class:`~repro.errors.TraceError` with the byte offset.  :func:`loads`
is the one decoder; :func:`verify` runs it and reports the totals.

Record layout (JSON payloads, canonical encoding — sorted keys, no
whitespace — so ``record -> load -> record`` round-trips byte-for-byte):

* first frame: the header — format tag, version, scenario ``name`` /
  ``seed`` / ``params``, the base edge list, and the total tick and op
  counts (which is how :func:`loads` catches a file truncated exactly
  at a frame boundary);
* one frame per tick: ``{"kind": "tick", "seq", "t", "ops"}`` with ops
  as ``[kind, u, v]`` triples (the WAL's op encoding).
"""

from __future__ import annotations

import io
import json
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Union

from repro.errors import ReproError, TraceError
from repro.scenarios.base import Scenario, Tick
from repro.service.wal import batch_from_ops, batch_to_ops, frame, frames

PathLike = Union[str, Path]

#: Trace format version; bump on framing or payload layout changes.
TRACE_VERSION = 1

#: Header tag distinguishing traces from WAL files (same framing).
TRACE_FORMAT = "repro-trace"


def _canonical(payload: dict) -> bytes:
    """Deterministic JSON bytes — the byte-identity contract."""
    try:
        return json.dumps(
            payload, sort_keys=True, separators=(",", ":")
        ).encode()
    except (TypeError, ValueError) as exc:
        raise TraceError(
            f"trace records must be JSON-representable: {exc}"
        ) from exc


def dumps(scenario: Scenario) -> bytes:
    """Serialize a scenario to trace bytes (see :func:`record`)."""
    inserts, removes = scenario.counts()
    header = {
        "kind": "header",
        "format": TRACE_FORMAT,
        "version": TRACE_VERSION,
        "name": scenario.name,
        "seed": scenario.seed,
        "params": scenario.params,
        "base": [[u, v] for u, v in scenario.base_edges],
        "ticks": scenario.n_ticks,
        "ops": scenario.n_ops,
    }
    out = io.BytesIO()
    out.write(frame(_canonical(header)))
    for seq, tick in enumerate(scenario.ticks):
        out.write(frame(_canonical({
            "kind": "tick",
            "seq": seq,
            "t": tick.t,
            "ops": batch_to_ops(tick.batch),
        })))
    return out.getvalue()


def record(scenario: Scenario, target: Union[PathLike, IO[bytes]]) -> int:
    """Write a scenario as a trace; returns the bytes written.

    ``target`` is a path or a binary file object (e.g. ``stdout.buffer``
    for piping ``repro gen`` into ``repro replay``).
    """
    data = dumps(scenario)
    if hasattr(target, "write"):
        target.write(data)
    else:
        Path(target).write_bytes(data)
    return len(data)


def _decode_tick(origin: str, start: int, record: dict, seq: int) -> Tick:
    """Decode one tick frame; :class:`TraceError` naming ``start``."""
    if record.get("kind") != "tick":
        raise TraceError(
            f"trace {origin} has a record of unknown kind "
            f"{record.get('kind')!r}",
            offset=start,
        )
    if record.get("seq") != seq:
        raise TraceError(
            f"trace {origin} tick sequence broken: expected seq {seq}, "
            f"found {record.get('seq')!r}",
            offset=start,
        )
    t = record.get("t")
    if type(t) not in (int, float):
        raise TraceError(
            f"trace {origin} tick field 't' is {t!r}", offset=start
        )
    try:
        batch = batch_from_ops(record.get("ops"))
    except (ReproError, TypeError, ValueError) as exc:
        raise TraceError(
            f"trace {origin} tick field 'ops' is not a list of "
            f"[kind, u, v] triples: {exc}",
            offset=start,
        ) from exc
    return Tick(float(t), batch)


def loads(data: bytes, origin: str = "<bytes>") -> Scenario:
    """Rebuild a :class:`Scenario` from trace bytes.

    Any bad frame, malformed record or broken count raises
    :class:`~repro.errors.TraceError` with the byte offset.
    """
    header = None
    ticks: list[Tick] = []
    for start, record in frames(data):
        if record is None:
            what = (
                "has a corrupt frame" if data.find(b"\n", start) >= 0
                else "ends with a truncated frame"
            )
            raise TraceError(f"trace {origin} {what}", offset=start)
        if header is not None:
            ticks.append(_decode_tick(origin, start, record, len(ticks)))
        elif (record.get("kind") != "header"
              or record.get("format") != TRACE_FORMAT):
            raise TraceError(
                f"trace {origin} has no valid trace header "
                "(is this a WAL file?)",
                offset=0,
            )
        elif record.get("version") != TRACE_VERSION:
            raise TraceError(
                f"trace {origin} is format version "
                f"{record.get('version')!r}; this build reads version "
                f"{TRACE_VERSION}",
                offset=0,
            )
        else:
            header = record
    if header is None:
        raise TraceError(f"trace {origin} is empty", offset=0)
    if len(ticks) != header.get("ticks"):
        raise TraceError(
            f"trace {origin} declares {header.get('ticks')} ticks but "
            f"carries {len(ticks)} — truncated at a frame boundary?",
            offset=len(data),
        )
    try:
        scenario = Scenario(
            header["name"],
            seed=header["seed"],
            params=header.get("params", {}),
            base_edges=[(u, v) for u, v in header.get("base", [])],
            ticks=ticks,
        )
    except (KeyError, ReproError, TypeError, ValueError) as exc:
        raise TraceError(
            f"trace {origin} is not a valid scenario: {exc!r}"
        ) from exc
    if scenario.n_ops != header.get("ops"):
        raise TraceError(
            f"trace {origin} declares {header.get('ops')} ops but "
            f"carries {scenario.n_ops}"
        )
    return scenario


def _read(source: Union[PathLike, IO[bytes]]) -> tuple[bytes, str]:
    if hasattr(source, "read"):
        return source.read(), "<stream>"
    path = Path(source)
    return path.read_bytes(), repr(str(path))


def load(source: Union[PathLike, IO[bytes]]) -> Scenario:
    """Load a trace from a path or binary file object."""
    return loads(*_read(source))


@dataclass(frozen=True)
class TraceInfo:
    """Outcome of :func:`verify`: the header's claims, all checked."""

    name: str
    seed: int
    params: dict
    base_edges: int
    ticks: int
    ops: int
    total_bytes: int


def verify(source: Union[PathLike, IO[bytes]]) -> TraceInfo:
    """Validate a trace end to end: exactly the checks :func:`loads` makes.

    Raises :class:`~repro.errors.TraceError` with the byte offset of the
    first problem.
    """
    data, origin = _read(source)
    scenario = loads(data, origin)
    return TraceInfo(
        name=scenario.name,
        seed=scenario.seed,
        params=scenario.params,
        base_edges=len(scenario.base_edges),
        ticks=scenario.n_ticks,
        ops=scenario.n_ops,
        total_bytes=len(data),
    )
