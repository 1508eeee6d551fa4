"""Wire protocol of the async serving front: framed JSONL over streams.

One frame per message, reusing the write-ahead log's framing
(:mod:`repro.service.wal`)::

    <length> <crc32-hex> <payload>\\n

so a torn or corrupted frame is *detected* (the frame fails) rather than
silently mis-parsed — the same property the WAL relies on, now applied
to the network: a connection that dies mid-write leaves the peer with a
partial frame it can recognize and discard, never half a message it
mistakes for a whole one.

Message shapes (JSON objects):

* request — ``{"id": n, "method": str, "session": str, "params": {...}}``
* success — ``{"id": n, "ok": true, "result": ...}``
* failure — ``{"id": n, "ok": false, "error": {"type": str,
  "message": str, "retryable": bool, "retry_after_ms": int?}}``
* event batch — ``{"kind": "events", "sub": n,
  "events": [[vertex, old_core, new_core, receipt_id], ...],
  "dropped": n}``
* stream reset — ``{"kind": "reset", "sub": n, "receipt": n}`` (sent
  after a session failover: events during the crash window are gone,
  resync by querying)

Vertices must be JSON-representable — the same contract as the WAL and
the snapshot format.

The failure ``type`` names are part of the protocol; the client maps
them back to the exception classes below (:func:`raise_remote_error`).
``RetryAfter`` carries a backoff hint in ``retry_after_ms`` — it is the
load-shedding response, not an error in the session.
"""

from __future__ import annotations

import asyncio
import json
from typing import Optional

from repro.errors import ServiceError
from repro.service.wal import frame, frames

#: Per-connection stream limit: one frame must fit (cores dumps of a
#: large session are the biggest payloads the protocol carries).
STREAM_LIMIT = 2**22

# ---------------------------------------------------------------------------
# Error taxonomy
# ---------------------------------------------------------------------------

#: Commit shed by admission control / backpressure; retry after the hint.
ERR_RETRY_AFTER = "RetryAfter"
#: The per-request deadline fired before the reply; the commit may still
#: have landed — retry with the same token to find out idempotently.
ERR_DEADLINE = "DeadlineExceeded"
#: The session is degraded (poisoned engine, no log to recover from) and
#: cannot take writes.
ERR_DEGRADED = "SessionDegraded"
#: The batch itself was invalid against the current graph.
ERR_BATCH = "BatchError"
#: Malformed request / unknown method or query op.
ERR_BAD_REQUEST = "BadRequest"
#: Anything else the server refused or failed on.
ERR_INTERNAL = "InternalError"


class ProtocolError(ServiceError):
    """A peer sent bytes that do not decode to a valid protocol frame."""


class ConnectionClosedError(ServiceError):
    """The connection died before the request was answered.

    The request may or may not have been processed — commit retries must
    reuse their idempotency token.
    """


class RemoteError(ServiceError):
    """The server answered a request with a failure frame."""

    def __init__(
        self,
        err_type: str,
        message: str,
        *,
        retryable: bool = False,
        retry_after: Optional[float] = None,
    ) -> None:
        super().__init__(f"{err_type}: {message}")
        self.err_type = err_type
        self.remote_message = message
        self.retryable = retryable
        #: Suggested backoff in seconds (``RetryAfter`` only).
        self.retry_after = retry_after


class RetryAfterError(RemoteError):
    """The server shed the request; retry after :attr:`retry_after`."""


class DeadlineExceededError(RemoteError):
    """The per-request deadline fired before the server replied."""


class SessionDegradedError(RemoteError):
    """The session is read-only (degraded) and cannot take the write."""


_ERROR_CLASSES = {
    ERR_RETRY_AFTER: RetryAfterError,
    ERR_DEADLINE: DeadlineExceededError,
    ERR_DEGRADED: SessionDegradedError,
}


def raise_remote_error(error: dict) -> None:
    """Raise the client-side exception for a failure frame's ``error``."""
    err_type = error.get("type", ERR_INTERNAL)
    retry_ms = error.get("retry_after_ms")
    cls = _ERROR_CLASSES.get(err_type, RemoteError)
    raise cls(
        err_type,
        error.get("message", ""),
        retryable=bool(error.get("retryable")),
        retry_after=retry_ms / 1000.0 if retry_ms is not None else None,
    )


# ---------------------------------------------------------------------------
# Framing
# ---------------------------------------------------------------------------


def encode_frame(record: dict) -> bytes:
    """Serialize one message as a framed line (WAL framing)."""
    return frame(json.dumps(record).encode())


async def read_message(reader: asyncio.StreamReader) -> Optional[dict]:
    """Read one framed message; ``None`` on a clean or mid-frame EOF.

    A syntactically present but invalid frame (bad length, checksum or
    JSON) raises :class:`ProtocolError` — the peer is speaking, but not
    this protocol.
    """
    try:
        line = await reader.readuntil(b"\n")
    except asyncio.IncompleteReadError:
        return None  # EOF (possibly mid-frame: a dropped connection)
    except asyncio.LimitOverrunError as exc:
        raise ProtocolError(
            f"frame exceeds the {STREAM_LIMIT}-byte stream limit"
        ) from exc
    _, record = next(frames(line))
    if record is None:
        raise ProtocolError(
            f"received {len(line)} bytes that are not a valid frame"
        )
    return record


async def write_message(
    writer: asyncio.StreamWriter, record: dict
) -> None:
    """Frame and send one message, draining the transport buffer."""
    writer.write(encode_frame(record))
    await writer.drain()


# ---------------------------------------------------------------------------
# Message constructors
# ---------------------------------------------------------------------------


def request(req_id: int, method: str, session: str, params: dict) -> dict:
    return {"id": req_id, "method": method, "session": session,
            "params": params}


def ok(req_id: int, result) -> dict:
    return {"id": req_id, "ok": True, "result": result}


def failure(
    req_id: int,
    err_type: str,
    message: str,
    *,
    retryable: bool = False,
    retry_after_ms: Optional[int] = None,
) -> dict:
    error = {"type": err_type, "message": message, "retryable": retryable}
    if retry_after_ms is not None:
        error["retry_after_ms"] = retry_after_ms
    return {"id": req_id, "ok": False, "error": error}


def events_frame(sub_id: int, events, dropped: int) -> dict:
    """One commit-stream delivery: a batch of core events for ``sub_id``."""
    return {
        "kind": "events",
        "sub": sub_id,
        "events": [
            [e.vertex, e.old_core, e.new_core, e.receipt_id] for e in events
        ],
        "dropped": dropped,
    }


def reset_frame(sub_id: int, receipt: int) -> dict:
    """Stream discontinuity marker: events up to ``receipt`` may be lost."""
    return {"kind": "reset", "sub": sub_id, "receipt": receipt}
