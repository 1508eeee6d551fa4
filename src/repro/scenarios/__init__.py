"""Workload scenarios: seeded generators, recorded traces, replay.

The subsystem that turns "a stream of updates" into a first-class,
shareable artifact:

* :mod:`~repro.scenarios.generators` — deterministic seeded workload
  families (bursts, sliding-window churn, flash crowds, relabel storms,
  component bridge/sever storms, mixed streams) emitting a common
  :class:`Scenario` of timed :class:`Tick` batches;
* :mod:`~repro.scenarios.trace` — a durable framed-JSONL trace format
  (the WAL's crash-evident framing) with byte-identical round-trips;
* :mod:`~repro.scenarios.loaders` — SNAP-format temporal networks and
  arbitrary :class:`~repro.graphs.temporal.TemporalEdgeStream` objects
  adapted into the same scenario shape;
* :mod:`~repro.scenarios.replay` — the driver pushing any scenario
  through :class:`~repro.service.CoreService` (or the async serving
  front) with per-tick core-map checkpoints and cross-engine agreement
  checks.
"""

from repro.scenarios.base import Scenario, ScenarioBuilder, Tick
from repro.scenarios.generators import (
    SCENARIOS,
    available_scenarios,
    burst_arrivals,
    flash_crowd,
    interleaved_plan,
    make_scenario,
    mixed_stream,
    relabel_storm,
    scenario_params,
    shard_merge_storm,
    sliding_window_churn,
)
from repro.scenarios.loaders import (
    SNAP_TIME_COLUMN,
    load_snap_stream,
    scenario_from_snap,
    scenario_from_stream,
)
from repro.scenarios.replay import (
    ReplayReport,
    TickCheckpoint,
    check_agreement,
    core_digest,
    replay,
    replay_all,
    replay_via_client,
)
from repro.scenarios.trace import (
    TRACE_FORMAT,
    TRACE_VERSION,
    TraceInfo,
    dumps,
    load,
    loads,
    record,
    verify,
)

__all__ = [
    "Scenario",
    "ScenarioBuilder",
    "Tick",
    "SCENARIOS",
    "available_scenarios",
    "scenario_params",
    "make_scenario",
    "burst_arrivals",
    "sliding_window_churn",
    "flash_crowd",
    "relabel_storm",
    "shard_merge_storm",
    "mixed_stream",
    "interleaved_plan",
    "SNAP_TIME_COLUMN",
    "load_snap_stream",
    "scenario_from_stream",
    "scenario_from_snap",
    "TRACE_FORMAT",
    "TRACE_VERSION",
    "TraceInfo",
    "dumps",
    "loads",
    "record",
    "load",
    "verify",
    "ReplayReport",
    "TickCheckpoint",
    "core_digest",
    "replay",
    "replay_all",
    "replay_via_client",
    "check_agreement",
]
