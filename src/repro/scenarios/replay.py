"""The replay driver: push any scenario through :class:`CoreService`.

One service commit per tick, with a per-tick **checkpoint** — a compact
digest of the full core map (optionally the map itself) — so two replays
can be compared tick by tick: live generation vs a recorded trace, or
the same trace across engines.  :func:`check_agreement` raises
:class:`~repro.errors.ScenarioError` naming the first divergent tick,
and :func:`replay_all` runs a scenario across an engine matrix with the
check built in; this is the substrate the cross-engine hypothesis
suites, ``repro replay --check`` and ``bench_scenarios.py`` all share.

:func:`replay_via_client` drives the same tick loop through the async
serving front's :class:`~repro.service.client.CoreClient`, so a scenario
can exercise a live :class:`~repro.service.server.CoreServer` end to end
(commits are exactly-once via the client's idempotency tokens).
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field
from typing import Dict, Hashable, Optional, Sequence

from repro.engine.registry import DEFAULT_ENGINE
from repro.errors import ScenarioError
from repro.scenarios.base import Scenario
from repro.service import CoreService
from repro.service.wal import batch_to_ops

Vertex = Hashable


def core_digest(cores: dict) -> str:
    """A stable 16-hex-digit digest of a full core map.

    Vertices are keyed by ``(type name, repr)`` so the digest is
    reproducible across runs, engines and processes regardless of dict
    order; two maps digest equal iff they are equal (up to repr
    collisions, which integer-vertex scenarios cannot produce).
    """
    payload = json.dumps(
        sorted(
            ((type(v).__name__, repr(v), c) for v, c in cores.items())
        ),
        separators=(",", ":"),
    ).encode()
    return hashlib.sha256(payload).hexdigest()[:16]


@dataclass(frozen=True)
class TickCheckpoint:
    """The agreement-checking unit: one tick's post-commit core map."""

    seq: int
    t: float
    ops: int
    digest: str
    #: The full core map, only when the replay ran with ``keep_cores``.
    cores: Optional[dict] = None


@dataclass
class ReplayReport:
    """What one replay did, checkpointed per tick."""

    scenario: str
    engine: str
    ticks: int = 0
    ops: int = 0
    inserts: int = 0
    removes: int = 0
    elapsed: float = 0.0
    checkpoints: list = field(default_factory=list)
    final_cores: dict = field(default_factory=dict)
    counters: dict = field(default_factory=dict)

    @property
    def ops_per_second(self) -> float:
        return self.ops / self.elapsed if self.elapsed > 0 else 0.0

    def digests(self) -> list[str]:
        return [cp.digest for cp in self.checkpoints]

    def summary(self) -> dict:
        """JSON-ready headline numbers (the CLI's ``repro replay``)."""
        return {
            "scenario": self.scenario,
            "engine": self.engine,
            "ticks": self.ticks,
            "ops": self.ops,
            "inserts": self.inserts,
            "removes": self.removes,
            "elapsed_seconds": round(self.elapsed, 6),
            "ops_per_second": round(self.ops_per_second, 1),
            "final_digest": (
                self.checkpoints[-1].digest if self.checkpoints else
                core_digest(self.final_cores)
            ),
        }


def replay(
    scenario: Scenario,
    *,
    engine: str = DEFAULT_ENGINE,
    service: Optional[CoreService] = None,
    keep_cores: bool = False,
) -> ReplayReport:
    """Replay a scenario, one service commit per tick.

    Opens a fresh :class:`CoreService` over the scenario's base graph
    (or adopts ``service``, which must already hold exactly that graph —
    the caller's hook for WAL-logged or subscribed replays) and applies
    every tick's batch as one commit, checkpointing the core map after
    each.  With ``keep_cores`` every checkpoint carries the full map,
    not just its digest (the hypothesis suites' exact-equality mode).
    """
    owned = service is None
    if owned:
        service = CoreService.open(scenario.base_graph(), engine=engine)
    report = ReplayReport(
        scenario=scenario.name, engine=service.engine_name
    )
    started = time.perf_counter()
    try:
        for seq, tick in enumerate(scenario.ticks):
            receipt = service.apply(tick.batch)
            cores = service.cores()
            report.checkpoints.append(TickCheckpoint(
                seq=seq,
                t=tick.t,
                ops=len(tick.batch),
                digest=core_digest(cores),
                cores=cores if keep_cores else None,
            ))
            report.ticks += 1
            report.ops += len(tick.batch)
            inserts, removes = tick.batch.counts()
            report.inserts += inserts
            report.removes += removes
            for key, value in receipt.result.counters.items():
                report.counters[key] = report.counters.get(key, 0) + value
        report.final_cores = service.cores()
    finally:
        report.elapsed = time.perf_counter() - started
        if owned:
            service.close()
    return report


def check_agreement(reports: Sequence[ReplayReport]) -> None:
    """Assert every report checkpointed identical per-tick core maps.

    Compares full maps when both sides carry them, digests otherwise;
    raises :class:`~repro.errors.ScenarioError` naming the first
    divergent tick and the two engines.
    """
    if len(reports) < 2:
        return
    reference = reports[0]
    for other in reports[1:]:
        if len(other.checkpoints) != len(reference.checkpoints):
            raise ScenarioError(
                f"replay disagreement on {reference.scenario!r}: "
                f"{reference.engine} checkpointed "
                f"{len(reference.checkpoints)} ticks, {other.engine} "
                f"{len(other.checkpoints)}"
            )
        for a, b in zip(reference.checkpoints, other.checkpoints):
            same = (
                a.cores == b.cores
                if a.cores is not None and b.cores is not None
                else a.digest == b.digest
            )
            if not same:
                raise ScenarioError(
                    f"replay disagreement on {reference.scenario!r} at "
                    f"tick {a.seq} (t={a.t}): {reference.engine} and "
                    f"{other.engine} produced different core maps"
                )


def replay_all(
    scenario: Scenario,
    engines: Sequence[str],
    *,
    keep_cores: bool = False,
    check: bool = True,
) -> Dict[str, ReplayReport]:
    """Replay one scenario across several engines, agreement-checked."""
    reports = {
        name: replay(scenario, engine=name, keep_cores=keep_cores)
        for name in engines
    }
    if check:
        check_agreement(list(reports.values()))
    return reports


async def replay_via_client(
    scenario: Scenario,
    client,
    *,
    keep_cores: bool = False,
) -> ReplayReport:
    """Replay through the async serving front, one commit per tick.

    ``client`` is a connected
    :class:`~repro.service.client.CoreClient`; its tenant session must
    be fresh (the base edges land as the first commit).  Checkpoints
    query the full core map after each tick, so a remote replay is
    digest-comparable with a local :func:`replay` of the same scenario.
    """
    report = ReplayReport(scenario=scenario.name, engine="client")
    started = time.perf_counter()
    if scenario.base_edges:
        await client.commit(
            [("insert", u, v) for u, v in scenario.base_edges]
        )
    for seq, tick in enumerate(scenario.ticks):
        await client.commit(batch_to_ops(tick.batch))
        cores = await client.cores()
        report.checkpoints.append(TickCheckpoint(
            seq=seq,
            t=tick.t,
            ops=len(tick.batch),
            digest=core_digest(cores),
            cores=cores if keep_cores else None,
        ))
        report.ticks += 1
        report.ops += len(tick.batch)
        inserts, removes = tick.batch.counts()
        report.inserts += inserts
        report.removes += removes
    report.final_cores = await client.cores()
    report.elapsed = time.perf_counter() - started
    return report
