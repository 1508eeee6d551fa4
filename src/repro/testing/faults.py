"""Deterministic fault injection: named crash points, armed on demand.

Durability claims are only as good as the failures they survive, so the
durable-session stack (:mod:`repro.service.wal`, the snapshot writer,
the engines' batch paths) is instrumented with
**named crash points**: call sites that invoke :func:`inject` with a
registered point name.  When no plan is armed the call is one global
read and a ``None`` check — it never shows up in benchmarks.

A test arms a :class:`FaultPlan` as a context manager::

    with FaultPlan().crash("wal.after_append") as plan:
        with pytest.raises(InjectedFault):
            svc.insert(1, 2)            # dies right after the WAL write
    assert plan.fired == ["wal.after_append"]
    recovered = CoreService.recover(log_path)

Points are armed by *hit count* (``hits=3`` → the third time execution
reaches the point) or by *probability* with a seeded RNG — both
deterministic, so a shrunk hypothesis failure replays exactly.  A fired
:class:`InjectedFault` propagates like a crash: the library never
catches it, state is abandoned mid-operation, and recovery must work
from whatever reached disk.
"""

from __future__ import annotations

import random
import threading
from typing import Optional

from repro.errors import ReproError

#: Every registered crash point and where it fires.  Arming an unknown
#: name is a test bug and raises immediately.  Subsystems outside the
#: durable write path (the async serving front, the log replica) add
#: their own points at import time via :func:`register_fault_point`
#: instead of growing this literal.
FAULT_POINTS: dict[str, str] = {
    "service.before_commit": (
        "CoreService._commit: batch validated, nothing written or applied"
    ),
    "wal.before_append": (
        "WriteAheadLog.append: record framed, no bytes written"
    ),
    "wal.mid_append": (
        "WriteAheadLog.append: half the framed record written (torn tail)"
    ),
    "wal.after_append": (
        "WriteAheadLog.append: record written and flushed, fsync policy "
        "not yet run"
    ),
    "wal.before_fsync": "WriteAheadLog: about to fsync the log file",
    "wal.after_fsync": "WriteAheadLog: log fsynced, append not yet reported",
    "engine.mid_batch": (
        "engine apply_batch: before each same-kind run of one batch, "
        "on the run loop and on the rebuild path alike"
    ),
    "snapshot.mid_write": (
        "snapshot writer: half the payload written to the temp file, "
        "rename not yet performed"
    ),
}


def register_fault_point(name: str, description: str) -> None:
    """Register a named fault point so plans can arm it.

    Instrumented subsystems call this at import time for their own
    points (``server.*``, ``replica.*``, …); the core durable-write
    points above stay predeclared.  Re-registering a point with the
    same description is a no-op (modules may be reimported); changing
    an existing point's description raises — two call sites claiming
    the same name is a bug.
    """
    if "." not in name:
        raise ValueError(
            f"fault point names are namespaced 'subsystem.point', got {name!r}"
        )
    if not description:
        raise ValueError(f"fault point {name!r} needs a description")
    existing = FAULT_POINTS.get(name)
    if existing is not None and existing != description:
        raise ValueError(
            f"fault point {name!r} is already registered as: {existing}"
        )
    FAULT_POINTS[name] = description


class InjectedFault(ReproError):
    """A crash point fired.  Simulates a process dying mid-operation.

    The library never catches this exception (tests and the stateful
    machine do), so it unwinds exactly like a crash would: whatever was
    durable stays, everything in flight is lost.
    """

    def __init__(self, point: str, hit: int) -> None:
        super().__init__(f"injected fault at {point!r} (hit {hit})")
        self.point = point
        self.hit = hit


class FaultPlan:
    """A set of armed crash points, installed as a context manager.

    Parameters
    ----------
    seed:
        Seeds the RNG used by probability-armed points, so probabilistic
        schedules replay deterministically.

    Arm points with :meth:`crash` (chainable).  Entering the plan makes
    it the process-wide active plan (instrumented code is threaded
    through one module-global, shared with worker threads on purpose —
    the server's off-loop recovery threads must see the same plan); leaving
    restores the previous one.  :attr:`fired` records every point that
    actually raised, in firing order.
    """

    def __init__(self, seed: Optional[int] = 0) -> None:
        self._arms: dict[str, dict] = {}
        self._hits: dict[str, int] = {}
        self._rng = random.Random(seed)
        self._lock = threading.Lock()
        self._previous: Optional["FaultPlan"] = None
        #: Points that fired, in order (a point armed by count fires once).
        self.fired: list[str] = []

    def crash(
        self,
        point: str,
        *,
        hits: int = 1,
        probability: Optional[float] = None,
    ) -> "FaultPlan":
        """Arm ``point``; returns ``self`` for chaining.

        With ``hits=n`` the point fires the *n*-th time execution
        reaches it (then disarms).  With ``probability=p`` every hit
        fires independently with probability ``p`` under the plan's
        seeded RNG (and the point stays armed).
        """
        if point not in FAULT_POINTS:
            known = ", ".join(sorted(FAULT_POINTS))
            raise ValueError(
                f"unknown fault point {point!r}; registered points: {known}"
            )
        if hits < 1:
            raise ValueError(f"hits must be >= 1, got {hits}")
        if probability is not None and not (0.0 <= probability <= 1.0):
            raise ValueError(f"probability must be in [0, 1], got {probability}")
        self._arms[point] = {"hits": hits, "probability": probability}
        return self

    def armed(self, point: str) -> bool:
        """Whether ``point`` is currently armed (may still never fire)."""
        return point in self._arms

    def hits(self, point: str) -> int:
        """How many times execution has reached ``point`` under this plan."""
        return self._hits.get(point, 0)

    def _hit(self, point: str) -> None:
        with self._lock:
            count = self._hits.get(point, 0) + 1
            self._hits[point] = count
            arm = self._arms.get(point)
            if arm is None:
                return
            if arm["probability"] is not None:
                if self._rng.random() >= arm["probability"]:
                    return
            elif count != arm["hits"]:
                return
            else:
                del self._arms[point]  # count-armed points fire once
            self.fired.append(point)
        raise InjectedFault(point, count)

    def __enter__(self) -> "FaultPlan":
        global _ACTIVE
        self._previous = _ACTIVE
        _ACTIVE = self
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        global _ACTIVE
        _ACTIVE = self._previous
        self._previous = None


#: The active plan; ``None`` keeps every crash point inert.
_ACTIVE: Optional[FaultPlan] = None


def inject(point: str) -> None:
    """Fire ``point`` if the active plan says so; no-op otherwise.

    The production-code hook: instrumented call sites invoke this with
    their registered name.  Cost when nothing is armed: one global read
    and a ``None`` test.
    """
    plan = _ACTIVE
    if plan is not None:
        plan._hit(point)


def is_armed(point: str) -> bool:
    """Whether the active plan has ``point`` armed.

    Lets a call site choose a more expensive instrumented path (e.g.
    the WAL's split write for ``wal.mid_append``) only while a plan
    actually targets it.
    """
    plan = _ACTIVE
    return plan is not None and plan.armed(point)
