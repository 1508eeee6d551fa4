"""Exception hierarchy for the :mod:`repro` package.

All exceptions raised by the library derive from :class:`ReproError`, so a
caller can catch the whole family with one ``except`` clause while still
being able to distinguish the specific failure modes below.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every exception raised by the library."""


class GraphError(ReproError):
    """Base class for errors about the graph structure itself."""


class VertexNotFoundError(GraphError, KeyError):
    """A vertex referenced by an operation is not present in the graph."""

    def __init__(self, vertex: object) -> None:
        super().__init__(f"vertex {vertex!r} is not in the graph")
        self.vertex = vertex


class EdgeNotFoundError(GraphError, KeyError):
    """An edge referenced by an operation is not present in the graph."""

    def __init__(self, u: object, v: object) -> None:
        super().__init__(f"edge ({u!r}, {v!r}) is not in the graph")
        self.edge = (u, v)


class EdgeExistsError(GraphError, ValueError):
    """An edge being inserted is already present in the graph."""

    def __init__(self, u: object, v: object) -> None:
        super().__init__(f"edge ({u!r}, {v!r}) already exists")
        self.edge = (u, v)


class SelfLoopError(GraphError, ValueError):
    """Self loops are not supported by k-core semantics in this library."""

    def __init__(self, vertex: object) -> None:
        super().__init__(f"self loop on vertex {vertex!r} is not allowed")
        self.vertex = vertex


class MaintainerError(ReproError):
    """Base class for core-maintenance engine errors."""


class StaleIndexError(MaintainerError, RuntimeError):
    """The maintained index no longer matches the graph it was built for."""


class InvariantViolationError(MaintainerError, AssertionError):
    """An internal invariant audit failed (indicates a library bug)."""


class BatchError(ReproError, ValueError):
    """A :class:`repro.engine.batch.Batch` was constructed incorrectly."""


class ServiceError(ReproError, RuntimeError):
    """A :class:`repro.service.CoreService` operation was invalid."""


class TransactionError(ServiceError):
    """A service transaction was used after commit or rollback."""


class LogCorruptionError(ServiceError):
    """A write-ahead commit log is unreadable beyond normal tail tearing.

    Torn *tail* records (a crash mid-append) are expected and repaired
    by truncation; this error means something worse — a bad frame with
    valid records after it, a missing or malformed header, or a record
    that does not apply to the recovered snapshot state.
    """


class WorkloadError(ReproError, ValueError):
    """A benchmark workload was mis-specified (e.g. sampling too many edges)."""


class ScenarioError(ReproError, ValueError):
    """A workload scenario was mis-specified, or replays diverged.

    Raised for unknown scenario names, invalid generator parameters, and
    by the replay driver's agreement check when two engines (or a live
    and a recorded run) produce different per-tick core maps.
    """


class TraceError(ReproError, ValueError):
    """A recorded scenario trace is unreadable.

    Carries the byte offset of the first bad frame so a truncated or
    corrupted artifact can be diagnosed precisely.
    """

    def __init__(self, message: str, *, offset: int = -1) -> None:
        if offset >= 0:
            message = f"{message} (at byte offset {offset})"
        super().__init__(message)
        self.offset = offset


class EdgeListFormatError(ReproError, ValueError):
    """An edge-list file has a malformed or out-of-contract line.

    Names the file and the 1-based line number, unlike the bare
    ``ValueError`` ``int()`` would raise.
    """

    def __init__(self, path: object, lineno: int, reason: str) -> None:
        super().__init__(f"{path}:{lineno}: {reason}")
        self.path = str(path)
        self.lineno = lineno
        self.reason = reason


class DatasetError(ReproError, KeyError):
    """An unknown dataset name was requested from the registry."""

    def __init__(self, name: str, known: tuple[str, ...]) -> None:
        super().__init__(
            f"unknown dataset {name!r}; known datasets: {', '.join(known)}"
        )
        self.name = name
        self.known = known
