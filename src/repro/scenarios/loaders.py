"""Real temporal networks as scenarios: SNAP loaders and stream adapters.

The paper's evaluation replays edge-timestamped graphs (Facebook,
Youtube, DBLP); SNAP publishes such *temporal networks* as plain
``u v timestamp`` edge lists.  These adapters convert any
:class:`~repro.graphs.temporal.TemporalEdgeStream` — read from disk or
produced by the dataset registry — into the same
:class:`~repro.scenarios.base.Scenario` shape the synthetic generators
emit, so real traces replay through exactly the same driver, benches and
agreement checks.

Grouping into ticks reuses :meth:`TemporalEdgeStream.ticks` (identical
timestamps, fixed-width ``every=`` buckets, or fixed-size ``count=``
groups), and an optional
sliding ``window=`` turns an arrival-only trace into the monitor's mixed
insert/expire workload.
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional, Union

from repro.engine.batch import normalize_edge
from repro.errors import ScenarioError, WorkloadError
from repro.graphs.io import read_temporal_edge_list
from repro.graphs.temporal import ExpiryQueue, TemporalEdgeStream
from repro.scenarios.base import Scenario, ScenarioBuilder

PathLike = Union[str, Path]

#: SNAP temporal networks are ``SRC DST UNIXTS`` — timestamp column 2.
SNAP_TIME_COLUMN = 2


def load_snap_stream(
    path: PathLike,
    *,
    time_column: int = SNAP_TIME_COLUMN,
    strict: bool = False,
    duplicates: str = "first",
) -> TemporalEdgeStream:
    """Read a SNAP-format temporal edge list (``u v timestamp``).

    A thin wrapper over :func:`repro.graphs.io.read_temporal_edge_list`
    with SNAP's column convention; ``#`` comments, gzip and the
    ``strict=`` / ``duplicates=`` contracts are inherited from there.
    """
    return read_temporal_edge_list(
        path, time_column, strict=strict, duplicates=duplicates
    )


def scenario_from_stream(
    stream: TemporalEdgeStream,
    *,
    name: str = "trace",
    seed: int = 0,
    every: Optional[float] = None,
    count: Optional[int] = None,
    window: Optional[float] = None,
    params: Optional[dict] = None,
) -> Scenario:
    """Convert a temporal stream into a replayable scenario.

    The stream's arrivals are grouped into ticks with the same knobs as
    :meth:`TemporalEdgeStream.ticks` (``every`` / ``count``; default:
    one tick per distinct timestamp).  Arrivals of an edge that is
    already live are skipped (simple graphs; with a window, a re-arrival
    refreshes the edge's expiry instead).

    With ``window=w`` each edge expires ``w`` time units after its
    latest arrival, monitor-style: a tick's batch removes the due
    cohort first, then inserts the genuinely new arrivals — so a real
    arrival-only trace becomes a full mixed insert/remove workload.

    ``count`` grouping may stamp consecutive ticks with the same
    timestamp; those groups are coalesced into one tick (scenario ticks
    are strictly time-ordered).
    """
    try:
        live = ExpiryQueue(window) if window is not None else None
    except WorkloadError as err:
        raise ScenarioError(str(err)) from None
    builder = ScenarioBuilder(
        name,
        seed=seed,
        params=dict(params or {}),
    )
    pending_t: Optional[float] = None

    def close_tick(next_t: Optional[float]) -> None:
        nonlocal pending_t
        if pending_t is not None and (next_t is None or next_t > pending_t):
            builder.tick(pending_t)
            pending_t = None

    for t, edges in stream.ticks(every, count=count):
        close_tick(t)
        pending_t = t
        if live is not None:
            for edge in live.expire(t):
                builder.remove(*edge)
        for u, v in edges:
            builder.insert(u, v)
            if live is not None:
                # New arrivals schedule an expiry; re-arrivals of a live
                # edge refresh it.
                live.arrive(normalize_edge(u, v), t)
    close_tick(None)
    return builder.build()


def scenario_from_snap(
    path: PathLike,
    *,
    name: Optional[str] = None,
    seed: int = 0,
    time_column: int = SNAP_TIME_COLUMN,
    strict: bool = False,
    duplicates: str = "first",
    every: Optional[float] = None,
    count: Optional[int] = None,
    window: Optional[float] = None,
) -> Scenario:
    """Load a SNAP-format temporal network straight into a scenario.

    ``name`` defaults to the file's stem; the grouping and ``window``
    knobs are :func:`scenario_from_stream`'s.
    """
    path = Path(path)
    stream = load_snap_stream(
        path, time_column=time_column, strict=strict, duplicates=duplicates
    )
    return scenario_from_stream(
        stream,
        name=name or path.stem.removesuffix(".txt"),
        seed=seed,
        every=every,
        count=count,
        window=window,
        params={"source": path.name},
    )
