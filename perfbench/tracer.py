"""In-memory span tracer for the benchmark's traced runs.

The library carries no tracing of its own, so the benchmark times the
calls into each layer's public entry points from its own process: for
the length of a traced round it replaces those entry points (a method
on a class, or a function on a module) with a wrapper that records one
:class:`Span` per call, and puts the originals back afterwards.

A span records its name, start, end, parent span and the request id it
served (a commit token, or a per-tenant read number).  Spans stay in
memory and are written out only when the run ends.  A layer's self time
is its span minus the time its child spans cover.

Only coarse boundaries are wrapped -- one commit, one WAL append, one
frame encode, one read, one log scan.  Per-edge and per-comparison
functions (``simplified_insert``, ``order_key``) run 10^4-10^6 times a
round, and wrapping them would measure the wrapper.
"""

from __future__ import annotations

import functools
import json
import time
from pathlib import Path
from typing import Callable, Iterable, Optional

_ABSENT = object()


class Span:
    """One timed call into a layer."""

    __slots__ = ("name", "start", "end", "parent", "rid", "phase",
                 "size", "child")

    def __init__(self, name: str, start: float, parent: int, rid,
                 phase: str) -> None:
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.rid = rid
        self.phase = phase
        #: Bytes produced, for spans wrapped with a ``size`` function.
        self.size = 0
        #: Time covered by direct child spans, summed as they end.
        self.child = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.end - self.start - self.child

    def as_dict(self) -> dict:
        return {
            "name": self.name, "start": self.start, "end": self.end,
            "parent": self.parent, "rid": self.rid, "phase": self.phase,
            "size": self.size,
        }


class Tracer:
    """Spans of one traced round, plus the patches that produce them.

    Synchronous spans nest through a stack: every wrapped entry point is
    a plain function that never awaits, so a span opened on the event
    loop closes before any other task runs.  Client-side request spans,
    which do cross awaits, are recorded whole with :meth:`record`.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        #: Label stamped on new spans ("setup", "measure", "reads",
        #: "recover"), so per-layer sums can pick their phase.
        self.phase = ""
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def begin(self, name: str, rid=None) -> Span:
        parent = self._stack[-1] if self._stack else -1
        span = Span(name, time.perf_counter(), parent, rid, self.phase)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()
        if span.parent >= 0:
            self.spans[span.parent].child += span.end - span.start

    def record(self, name: str, start: float, end: float, rid=None) -> None:
        """Add a finished top-level span (a caller's request latency)."""
        span = Span(name, start, -1, rid, self.phase)
        span.end = end
        self.spans.append(span)

    def patch(
        self,
        owner,
        attr: str,
        name: str,
        *,
        rid: Optional[Callable] = None,
        size: Optional[Callable] = None,
    ) -> None:
        """Wrap ``owner.attr`` so every call records a span ``name``.

        ``rid(args, kwargs)`` names the request a call serves; ``size``
        maps the call's result to the bytes it produced.
        """
        original = getattr(owner, attr)
        saved = vars(owner).get(attr, _ABSENT)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = tracer.begin(name, rid(args, kwargs) if rid else None)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.end(span)
            if size is not None:
                span.size = size(result)
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, saved))

    def unpatch(self) -> None:
        """Restore every patched entry point, newest first."""
        while self._patches:
            owner, attr, saved = self._patches.pop()
            if saved is _ABSENT:
                delattr(owner, attr)
            else:
                setattr(owner, attr, saved)

    def select(self, name: str, phase: Optional[str] = None) -> list[Span]:
        """Spans called ``name``, of one phase unless ``phase`` is None."""
        return [
            s for s in self.spans
            if s.name == name and (phase is None or s.phase == phase)
        ]

    def seconds(self, name: str, phase: Optional[str] = None) -> float:
        return sum(s.duration for s in self.select(name, phase))

    def self_seconds(self, name: str, phase: Optional[str] = None) -> float:
        return sum(s.self_time for s in self.select(name, phase))


def dump_spans(tracers: Iterable[Tracer], path: Path) -> None:
    """Write every traced round's spans as JSON lines, one span a line."""
    with open(path, "w") as fh:
        for round_no, tracer in enumerate(tracers):
            for span in tracer.spans:
                record = span.as_dict()
                record["round"] = round_no
                fh.write(json.dumps(record, default=str) + "\n")
