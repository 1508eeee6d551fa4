"""Durable write-ahead commit log for :class:`~repro.service.CoreService`.

The order-based index is pure in-memory state: a process crash loses
every commit since the last explicit snapshot.  The service already
produces the exact recovery material for free — each commit is one
validated :class:`~repro.engine.batch.Batch` with a monotone receipt id
— so durability is an append-only log of those records.  Recovery
(:func:`rebuild`) replays them into the latest snapshot's *graph* and
then builds the index once: Table III's one linear construction instead
of one incremental update per logged op.

Log format
----------
An append-only text file of framed JSON records, one per line::

    <length> <crc32-hex> <payload>\\n

``length`` is the payload's byte length and ``crc32`` its checksum, so a
torn write is *detected*: the frame fails.  :func:`frames` is the one
walker over framed bytes (this log, replica tails, recorded traces and
the wire protocol); each reader keeps only its stop policy.
:func:`scan` reads a bad final frame as a torn tail (a crash
mid-append), which :meth:`WriteAheadLog.attach` *repairs* by truncating
back to the last valid record, and raises
:class:`~repro.errors.LogCorruptionError` for a bad frame followed by
valid ones rather than silently drop committed history; :func:`tail`
stops at a partial frame and resumes there on the next poll.  Both
decode commit records in one place, so a CRC-valid record with a
missing or mistyped field is corruption on every path.

The first record is the header (``kind: "header"``): log version, the
engine registry name and options recovery builds the engine with,
and ``base_receipt`` — the receipt id already
captured by the snapshot this log continues from.  Every other record
is a commit: its receipt id plus the batch's ops.  Vertices must be
JSON scalars: one that decodes to a list or object cannot be replayed.

Fsync policy
------------
``always`` fsyncs after every append (commit durability), ``interval``
fsyncs every ``fsync_every`` appends and on close (bounded loss window),
``never`` leaves syncing to the OS (flush-only; cheapest, loses the
page-cache tail on power failure but nothing on a process crash).

Crash points (:mod:`repro.testing.faults`): ``wal.before_append``,
``wal.mid_append``, ``wal.after_append``, ``wal.before_fsync``,
``wal.after_fsync``.
"""

from __future__ import annotations

import json
import os
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator, Optional, Union

from repro.engine.batch import INSERT, REMOVE, Batch
from repro.errors import (
    LogCorruptionError,
    ReproError,
    ServiceError,
    StaleIndexError,
)
from repro.graphs.undirected import DynamicGraph
from repro.testing.faults import inject, is_armed

PathLike = Union[str, Path]

#: Log format version; bump on framing or payload layout changes.
WAL_VERSION = 1

#: Accepted fsync policies.
FSYNC_POLICIES = ("always", "interval", "never")

#: Default append count between fsyncs under the ``interval`` policy.
DEFAULT_FSYNC_EVERY = 64

#: Encodes commit records.  Byte-identical to ``json.dumps`` (the same
#: defaults); skipping the circular-reference check, which a record of
#: plain lists and scalars cannot need, makes each append cheaper.
_RECORD_ENCODER = json.JSONEncoder(check_circular=False)


def frame(payload: bytes) -> bytes:
    """One framed record: ``<length> <crc32-hex> <payload>\\n``."""
    return b"%d %08x " % (len(payload), zlib.crc32(payload)) + payload + b"\n"


def _parse_frame(line: bytes) -> Optional[dict]:
    """Decode one framed line; ``None`` when the frame is invalid."""
    try:
        length, crc, payload = line.split(b" ", 2)
        if int(length) != len(payload) or int(crc, 16) != zlib.crc32(payload):
            return None
        record = json.loads(payload)
    except ValueError:
        return None
    return record if isinstance(record, dict) else None


def frames(
    data: bytes, offset: int = 0
) -> Iterator[tuple[int, Optional[dict]]]:
    """Walk the framed records of ``data`` from byte ``offset``.

    Yields ``(start, record)`` per frame: its byte offset and its JSON
    object, or ``None`` when the frame is invalid (bad length, checksum
    or JSON, a payload that is not an object, or a final frame with no
    newline — a torn tail).  The walk goes on past an invalid frame at
    the next newline; each reader picks its own stop policy.

    >>> data = frame(b'{"n": 1}') + frame(b'{"n": 2}')[:12]
    >>> list(frames(data))
    [(0, {'n': 1}), (20, None)]
    """
    while offset < len(data):
        newline = data.find(b"\n", offset)
        if newline < 0:
            yield offset, None
            return
        yield offset, _parse_frame(data[offset:newline])
        offset = newline + 1


@dataclass(frozen=True)
class LogInfo:
    """Outcome of reading a log file (see :func:`scan` and :func:`tail`).

    Attributes
    ----------
    header:
        The decoded header record.
    records:
        ``(receipt_id, ops)`` pairs for every commit record read, in
        log order; ``ops`` is a list of ``[kind, u, v]`` triples.
    valid_bytes:
        End of the valid framed prefix: bytes beyond it are a torn tail
        (:meth:`torn_bytes`), and :func:`tail` resumes there.
    total_bytes:
        File size at read time.
    tokens:
        receipt id -> idempotency token, for records that carried one
        (see :meth:`WriteAheadLog.append`).
    rotated:
        :func:`tail` only: the file shrank below the requested offset
        (a compaction replaced it), so nothing was read and the caller
        must rebuild from the snapshot instead of resuming.
    """

    header: dict
    records: list
    valid_bytes: int
    total_bytes: int
    tokens: dict = field(default_factory=dict)
    rotated: bool = False

    @property
    def torn_bytes(self) -> int:
        """Bytes of torn tail to be truncated on attach."""
        return self.total_bytes - self.valid_bytes

    @property
    def last_receipt(self) -> int:
        """Highest receipt id the log knows about (records or header)."""
        if self.records:
            return self.records[-1][0]
        return self.header.get("base_receipt", 0)


#: JSON types a logged vertex may decode to (hashable scalars).
_VERTEX_TYPES = (str, int, float, bool, type(None))


def _is_op(op) -> bool:
    return (type(op) is list and len(op) == 3 and op[0] in (INSERT, REMOVE)
            and type(op[1]) in _VERTEX_TYPES and type(op[2]) in _VERTEX_TYPES)


def _decode_header(log: PathLike, record: Optional[dict]) -> dict:
    """Check a header record; :class:`LogCorruptionError` if malformed."""
    if record is None or record.get("kind") != "header":
        raise LogCorruptionError(
            f"commit log {str(log)!r} has no valid header record"
        )
    if record.get("version") != WAL_VERSION:
        raise LogCorruptionError(
            f"commit log {str(log)!r} header field 'version' is "
            f"{record.get('version')!r}; this build reads version "
            f"{WAL_VERSION}"
        )
    base = record.get("base_receipt", 0)
    if type(base) is not int or base < 0:
        raise LogCorruptionError(
            f"commit log {str(log)!r} header field 'base_receipt' is "
            f"{base!r}, not a receipt id"
        )
    return record


def _corrupt(log: PathLike, start: int, what: str) -> LogCorruptionError:
    return LogCorruptionError(
        f"commit log {str(log)!r} record at byte offset {start} {what}"
    )


def _decode(
    log: PathLike, header: dict, framed: list, valid_bytes: int, size: int
) -> LogInfo:
    """Decode the ``(start, record)`` commit frames after ``header``.

    Every record must be a commit whose ``receipt`` is an int above the
    previous one (the header's ``base_receipt`` for the first) and
    whose ``ops`` are ``[kind, u, v]`` triples of a known kind; anything
    else is a :class:`LogCorruptionError` naming the byte offset.
    """
    records: list[tuple[int, list]] = []
    tokens: dict[int, str] = {}
    last = header.get("base_receipt", 0)
    for start, record in framed:
        if record.get("kind") != "commit":
            raise _corrupt(
                log, start, f"has unknown kind {record.get('kind')!r}"
            )
        receipt = record.get("receipt")
        if type(receipt) is not int:
            raise _corrupt(log, start, f"has field 'receipt' {receipt!r}")
        if receipt <= last:
            raise _corrupt(
                log, start, f"has receipt ids not increasing: {receipt} "
                f"after {last}",
            )
        ops = record.get("ops")
        if type(ops) is not list or not all(map(_is_op, ops)):
            raise _corrupt(
                log, start,
                "has field 'ops' that is not a list of [kind, u, v] triples",
            )
        token = record.get("token")
        if token is not None:
            if not isinstance(token, str):
                raise _corrupt(log, start, f"has field 'token' {token!r}")
            tokens[receipt] = token
        records.append((receipt, ops))
        last = receipt
    return LogInfo(header, records, valid_bytes, size, tokens)


def _valid_prefix(walk: Iterator, size: int) -> tuple[list, int]:
    """The valid frames ``walk`` yields before its first bad one, and
    that bad frame's offset (``size`` when there is none)."""
    valid: list[tuple[int, dict]] = []
    for start, record in walk:
        if record is None:
            return valid, start
        valid.append((start, record))
    return valid, size


def scan(path: PathLike) -> LogInfo:
    """Read and validate ``path``; detect (but do not repair) torn tails.

    A bad final frame is a torn tail (:attr:`LogInfo.torn_bytes`).
    Raises :class:`~repro.errors.LogCorruptionError` for a missing or
    malformed header, a bad frame that is *not* at the tail (valid
    records follow it), or a malformed commit record.
    """
    data = Path(path).read_bytes()
    walk = frames(data)
    valid, end = _valid_prefix(walk, len(data))
    if any(record is not None for _, record in walk):
        raise LogCorruptionError(
            f"commit log {str(path)!r} has a corrupt record at byte "
            f"{end} followed by valid records — not a torn tail; "
            "refusing to drop committed history"
        )
    header = _decode_header(path, valid[0][1] if valid else None)
    return _decode(path, header, valid[1:], end, len(data))


def tail(path: PathLike, offset: int = 0) -> LogInfo:
    """Read the complete frames appended at or after ``offset``.

    The polling read for WAL-fed read replicas: unlike :func:`scan` it
    stops at the first partial or invalid frame (the writer may be
    mid-append — the bytes are left for the next call, which resumes
    at the returned :attr:`~LogInfo.valid_bytes`) and never repairs
    the file.  ``offset`` must be a frame boundary previously returned
    by :func:`tail` (or ``0``).  The header is decoded on every call, so
    a caller notices a compaction by it changing; a file shorter than
    ``offset`` reports ``rotated=True`` with no records.
    """
    data = Path(path).read_bytes()
    walk = frames(data)
    header = _decode_header(path, next(walk, (0, None))[1])
    if offset > len(data):
        return LogInfo(header, [], 0, len(data), rotated=True)
    valid, end = _valid_prefix(
        frames(data, offset) if offset else walk, len(data)
    )
    return _decode(path, header, valid, end, len(data))


def batch_to_ops(batch: Batch) -> list:
    """A batch's ops as JSON-ready ``[kind, u, v]`` triples."""
    return [[op.kind, op.edge[0], op.edge[1]] for op in batch]


def batch_from_ops(ops: list) -> Batch:
    """Rebuild a :class:`Batch` from :func:`batch_to_ops` output."""
    return Batch((kind, (u, v)) for kind, u, v in ops)


def replay(
    log: PathLike,
    records: list,
    after: int,
    graph: DynamicGraph,
    apply: Optional[Callable[[Batch], object]] = None,
) -> tuple[int, int]:
    """Land the ``(receipt_id, ops)`` records newer than ``after``.

    Records at or below ``after`` are already in the state and are
    skipped, which makes replay idempotent.  Each other record is checked
    against ``graph`` (:meth:`~repro.engine.batch.Batch.check_applicable`)
    before it lands — through ``apply`` (a replica's ``engine.apply_batch``
    over ``graph``), else into ``graph`` itself — so one that no longer
    applies raises :class:`~repro.errors.LogCorruptionError`.  Returns
    ``(last, replayed)``: the receipt id the state now reflects (``after``
    when nothing landed) and how many records landed.
    """
    last, replayed = after, 0
    for receipt_id, ops in records:
        if receipt_id <= after:
            continue
        try:
            batch = batch_from_ops(ops)
            batch.check_applicable(graph)
        except ReproError as exc:
            raise LogCorruptionError(
                f"commit log {str(log)!r} record {receipt_id} does "
                f"not apply to the recovered state: {exc}"
            ) from exc
        if apply is not None:
            apply(batch)
        else:
            batch.apply_to(graph)
        last = receipt_id
        replayed += 1
    return last, replayed


def snapshot_path(log: PathLike) -> Path:
    """Where a logged session keeps its compaction snapshot."""
    log = Path(log)
    return log.with_name(log.name + ".snapshot")


#: Engine names older logs may carry that are no longer registered,
#: mapped to the engine that replays them.  The sharded engines only
#: scheduled batches differently, and the aliases only pinned a k-order
#: generation policy or block backend (the O(log n) treap); the core
#: numbers are the plain engines'.
_RETIRED_ENGINES = {
    "order-sharded": "order",
    "order-sharded-simplified": "order-simplified",
    "trav": "trav-2",
    **{
        f"{base}-{suffix}": base
        for base in ("order", "order-simplified")
        for suffix in ("small", "large", "random", "om", "treap")
    },
}

#: Header options older builds accepted that never change a core number:
#: batch scheduling knobs, the k-order generation policy and the k-order
#: block backend.  :func:`rebuild` drops them.
_RETIRED_OPTIONS = (
    "partition", "parallel", "reshard", "engine", "policy", "sequence",
)


def _header_engine(log: PathLike, header: dict) -> tuple[str, dict]:
    """The engine name and options a log header asks for.

    Logs written by a retired engine name (``_RETIRED_ENGINES``) rebuild
    on the engine it maps to, ``_RETIRED_OPTIONS`` are dropped, and the
    ``"seed"`` field older builds wrote is ignored (no engine is
    randomized).  An unknown name is :class:`LogCorruptionError`.
    """
    from repro.engine.registry import is_engine_name

    opts = header.get("opts") or {}
    name = header.get("engine")
    if isinstance(name, str) and name in _RETIRED_ENGINES:
        # A sharded log names its sub-engine, possibly by a retired alias.
        name = opts.get("engine", _RETIRED_ENGINES[name])
        name = _RETIRED_ENGINES.get(name, name)
    if not isinstance(name, str) or not is_engine_name(name):
        raise LogCorruptionError(
            f"commit log {str(log)!r} header field 'engine' names "
            f"unknown engine {name!r}"
        )
    return name, {k: v for k, v in opts.items() if k not in _RETIRED_OPTIONS}


def _base_graph(
    log: PathLike, header: dict
) -> tuple[DynamicGraph, int, bool]:
    """The graph a log's replay starts from, the receipt it covers and
    whether a snapshot seeded it.

    That is the compaction snapshot's graph when the snapshot exists
    (version 1 or 2, see :mod:`repro.core.snapshot`), else an empty one.
    A damaged snapshot, or a header promising one that is missing, is
    :class:`LogCorruptionError`.
    """
    from repro.core.snapshot import read_snapshot

    snap = snapshot_path(log)
    if snap.exists():
        try:
            raw = json.loads(snap.read_bytes())
            _, graph = read_snapshot(raw)
            receipt = raw.get("receipt", 0)
            if type(receipt) is not int:
                raise StaleIndexError(f"field 'receipt' is {receipt!r}")
        except (ValueError, StaleIndexError) as exc:
            raise LogCorruptionError(
                f"commit log {str(log)!r} continues from compaction "
                f"snapshot {str(snap)!r}, which is damaged: {exc}"
            ) from exc
        return graph, receipt, True
    if header.get("base_receipt", 0) or header.get("snapshot"):
        raise LogCorruptionError(
            f"commit log {str(log)!r} continues from a compaction "
            f"snapshot (receipt {header.get('base_receipt', 0)}) "
            f"but {str(snap)!r} is missing"
        )
    return DynamicGraph(), 0, False


def rebuild(log: PathLike, info: LogInfo) -> tuple:
    """Build the engine a scanned log describes, indexing once.

    The compaction snapshot's graph (or an empty graph) takes every
    ``info`` record its receipt does not cover, through :func:`replay`
    into the bare graph.  Then ``make_engine(header engine, graph,
    **header opts)`` runs once: one static decomposition instead of one
    incremental update per logged op.  The cores are the same either
    way; only the built k-order may differ from the live session's.
    Returns ``(engine, receipt, replayed, from_snapshot)``: the receipt
    id the engine reflects, how many records were replayed, and whether
    a snapshot seeded the graph.

    Raises :class:`~repro.errors.LogCorruptionError` when the header
    names an engine or option this build does not know, when the
    snapshot is damaged or missing, or when a record does not apply.
    """
    from repro.engine.registry import make_engine

    name, opts = _header_engine(log, info.header)
    graph, base, from_snapshot = _base_graph(log, info.header)
    receipt, replayed = replay(log, info.records, base, graph)
    try:
        engine = make_engine(name, graph, **opts)
    except TypeError as exc:
        raise LogCorruptionError(
            f"commit log {str(log)!r} header field 'opts' is not "
            f"accepted by engine {name!r}: {exc}"
        ) from exc
    return engine, receipt, replayed, from_snapshot


class WriteAheadLog:
    """An open, appendable commit log.

    Create a fresh log with :meth:`create` or reopen an existing one
    with :meth:`attach` (which repairs a torn tail by truncation).  Use
    :meth:`append` per commit, :meth:`rotate` at compaction,
    :meth:`close` when the session ends.
    """

    def __init__(
        self,
        path: Path,
        header: dict,
        last_receipt: int,
        fsync: str,
        fsync_every: int,
    ) -> None:
        if fsync not in FSYNC_POLICIES:
            raise ServiceError(
                f"unknown fsync policy {fsync!r}; choose from "
                f"{', '.join(FSYNC_POLICIES)}"
            )
        if fsync_every < 1:
            raise ServiceError(
                f"fsync_every must be >= 1, got {fsync_every}"
            )
        self._path = Path(path)
        self._header = header
        self._fsync = fsync
        self._fsync_every = fsync_every
        self._since_sync = 0
        self._last_receipt = last_receipt
        self._fh = open(self._path, "ab")

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def create(
        cls,
        path: PathLike,
        *,
        engine: str,
        opts: Optional[dict] = None,
        base_receipt: int = 0,
        fsync: str = "always",
        fsync_every: int = DEFAULT_FSYNC_EVERY,
    ) -> "WriteAheadLog":
        """Write a fresh log (header only) atomically and open it.

        Refuses to overwrite an existing file — recovery must be an
        explicit choice (:meth:`attach` / ``CoreService.recover``), never
        an accidental truncation.
        """
        path = Path(path)
        if path.exists():
            raise ServiceError(
                f"commit log {str(path)!r} already exists; recover from it "
                "with CoreService.recover, or remove it explicitly"
            )
        header = {
            "kind": "header",
            "version": WAL_VERSION,
            "engine": engine,
            "opts": dict(opts or {}),
            "base_receipt": base_receipt,
        }
        _write_atomic(path, frame(json.dumps(header).encode()))
        return cls(path, header, base_receipt, fsync, fsync_every)

    @classmethod
    def attach(
        cls,
        path: PathLike,
        info: LogInfo,
        *,
        fsync: str = "always",
        fsync_every: int = DEFAULT_FSYNC_EVERY,
    ) -> "WriteAheadLog":
        """Reopen an existing log for appending, given its :func:`scan`.

        Truncates the torn tail ``info`` found (physically, so later
        appends start on a frame boundary) and resumes at the last valid
        receipt id.
        """
        path = Path(path)
        if info.torn_bytes:
            with open(path, "r+b") as fh:
                fh.truncate(info.valid_bytes)
                fh.flush()
                os.fsync(fh.fileno())
        return cls(path, info.header, info.last_receipt, fsync, fsync_every)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def path(self) -> Path:
        return self._path

    @property
    def header(self) -> dict:
        """The log's header record (treat as read-only)."""
        return self._header

    @property
    def last_receipt(self) -> int:
        """Receipt id of the last appended (or scanned) commit record."""
        return self._last_receipt

    @property
    def closed(self) -> bool:
        return self._fh is None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "closed" if self.closed else f"fsync={self._fsync!r}"
        return (
            f"WriteAheadLog({str(self._path)!r}, {state}, "
            f"last_receipt={self._last_receipt})"
        )

    # ------------------------------------------------------------------
    # Appending
    # ------------------------------------------------------------------

    def append(
        self, receipt_id: int, batch: Batch, *, token: Optional[str] = None
    ) -> None:
        """Durably record one commit *before* the engine applies it.

        ``token`` (optional) is a caller-supplied idempotency key stored
        in the record; :func:`scan` and :func:`tail` report it back via
        their ``tokens`` maps, letting a supervisor rebuild its
        retry-deduplication table from the log after a crash.
        """
        self._require_open()
        if receipt_id <= self._last_receipt:
            raise ServiceError(
                f"commit log receipt ids must increase: got {receipt_id} "
                f"after {self._last_receipt}"
            )
        record = {
            "kind": "commit",
            "receipt": receipt_id,
            "ops": batch_to_ops(batch),
        }
        if token is not None:
            record["token"] = token
        payload = _RECORD_ENCODER.encode(record).encode()
        framed = frame(payload)
        inject("wal.before_append")
        if is_armed("wal.mid_append"):
            # Instrumented split write: lets the crash matrix land a
            # genuinely torn record on disk.  Single write otherwise.
            self._fh.write(framed[: len(framed) // 2])
            self._fh.flush()
            inject("wal.mid_append")
            self._fh.write(framed[len(framed) // 2:])
        else:
            self._fh.write(framed)
        self._fh.flush()
        self._last_receipt = receipt_id
        inject("wal.after_append")
        if self._fsync == "always":
            self._sync()
        elif self._fsync == "interval":
            self._since_sync += 1
            if self._since_sync >= self._fsync_every:
                self._sync()

    def sync(self) -> None:
        """Flush and fsync regardless of policy."""
        self._require_open()
        self._fh.flush()
        self._sync()

    def _sync(self) -> None:
        inject("wal.before_fsync")
        os.fsync(self._fh.fileno())
        self._since_sync = 0
        inject("wal.after_fsync")

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def rotate(self, base_receipt: int) -> None:
        """Truncate the log to a fresh header after a snapshot landed.

        Atomic: the replacement log (header only, ``base_receipt``
        recording what the snapshot covers) is written to a temp file,
        fsynced, then renamed over the old log — a crash anywhere leaves
        either the full old log or the compacted new one, never a
        partial file.
        """
        self._require_open()
        header = dict(self._header)
        header["base_receipt"] = base_receipt
        # Even at base_receipt 0 (compaction before any commit — the
        # non-empty-open path) the log now *depends* on the snapshot:
        # the base graph lives only there.  Recovery must refuse to
        # proceed without it rather than rebuild from empty.
        header["snapshot"] = True
        self._fh.close()
        _write_atomic(self._path, frame(json.dumps(header).encode()))
        self._header = header
        self._last_receipt = max(self._last_receipt, base_receipt)
        self._since_sync = 0
        self._fh = open(self._path, "ab")

    def close(self) -> None:
        """Flush (and fsync unless policy is ``never``), then close.

        Idempotent; appending after close raises
        :class:`~repro.errors.ServiceError`.
        """
        if self._fh is None:
            return
        self._fh.flush()
        if self._fsync != "never":
            os.fsync(self._fh.fileno())
        self._fh.close()
        self._fh = None

    def _require_open(self) -> None:
        if self._fh is None:
            raise ServiceError(
                f"commit log {str(self._path)!r} is closed"
            )


def _write_atomic(path: Path, data: bytes) -> None:
    """Write ``data`` to ``path`` via temp-file-then-rename."""
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as fh:
        fh.write(data)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


def log_stat(path: PathLike) -> dict:
    """Machine-readable log statistics (the ``repro log-stat`` payload).

    One scan, no repair: reports the header fields, commit record count,
    receipt id range and how many torn-tail bytes a recovery would
    truncate.
    """
    info = scan(path)
    header = info.header
    return {
        "path": str(path),
        "version": header.get("version"),
        "engine": header.get("engine"),
        "base_receipt": header.get("base_receipt", 0),
        "records": len(info.records),
        "last_receipt": info.last_receipt,
        "bytes": info.total_bytes,
        "torn_bytes": info.torn_bytes,
    }
