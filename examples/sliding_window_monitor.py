"""Sliding-window core monitoring: "who is in the hot core right now?"

A timestamped activity stream (the gowalla stand-in replayed as check-in
ties) flows through a sliding window: an interaction counts for a fixed
horizon, then expires.  The monitor drives a ``CoreService`` session, so
arrivals and expiries commit as transactions and its promotion/demotion
statistics are plain event subscribers.

The window workload itself is constructed through ``repro.scenarios``
— ``scenario_from_stream(..., every=TICK, window=WINDOW)`` is the one
source of truth for how arrivals group into ticks and when edges
expire.  The monitor consumes the same stream live, and the finale
replays the scenario through the replay driver and asserts both paths
reached the identical core map (compared by digest).

Run:  python examples/sliding_window_monitor.py
"""

from repro import load_dataset
from repro.scenarios import core_digest, replay, scenario_from_stream
from repro.streaming import SlidingWindowCoreMonitor

#: Width of one arrival tick: every edge whose timestamp falls in the
#: same TICK-wide bucket lands on the engine as a single batch.
TICK = 25.0

#: Lifetime of a tie: a window of 1,500 time units over the stream.
WINDOW = 1500.0


def main() -> None:
    dataset = load_dataset("gowalla", scale=0.4, seed=13)
    stream = dataset.stream()

    # One source of truth for the workload: the scenario subsystem turns
    # the arrival stream into timed mixed insert/expire batches.
    scenario = scenario_from_stream(
        stream, name="gowalla-window", every=TICK, window=WINDOW
    )

    monitor = SlidingWindowCoreMonitor(window=WINDOW)
    ticks = list(stream.ticks(every=TICK))
    report_every = max(1, len(ticks) // 8)
    for i, (t, edges) in enumerate(ticks):
        monitor.observe_many(edges, t)
        if (i + 1) % report_every == 0:
            top = monitor.degeneracy()
            hot = monitor.service.kcore(top)
            print(
                f"t={t:7.0f}: {monitor.live_edges():5d} live ties | "
                f"hottest core k={top:2d} with {len(hot):3d} users | "
                f"{monitor.stats.promotions} promotions, "
                f"{monitor.stats.demotions} demotions so far"
            )

    # The live monitor and a cold replay of the recorded scenario must
    # land on the same core map — same workload, two drivers.
    live_digest = core_digest(monitor.service.cores())
    replayed = replay(scenario)
    assert replayed.checkpoints[-1].digest == live_digest, (
        "monitor and scenario replay diverged"
    )
    print(
        f"scenario replay agrees: {replayed.ticks} ticks, "
        f"{replayed.ops} ops, final digest {live_digest}"
    )

    removed = monitor.drain()
    commits = monitor.service.last_receipt.receipt_id
    print(
        f"stream over: drained {removed} remaining ties; totals — "
        f"{monitor.stats.arrivals} arrivals, {monitor.stats.refreshes} "
        f"refreshes, {monitor.stats.expiries} expiries in "
        f"{commits} service commits ({len(ticks)} arrival ticks)"
    )


if __name__ == "__main__":
    main()
