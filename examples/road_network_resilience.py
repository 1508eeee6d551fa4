"""Core resilience of a road network under edge failures.

The removal-heavy counterpart to the insertion examples: roads fail
(randomly, or targeted at the densest interchanges) and ``OrderRemoval``
repairs core numbers after every failure.  Each failure commits through
the service façade (``svc.remove``), so its receipt counts the
demotions and the query layer's spectrum and degeneracy follow every
removal.  The coreness profile of a road network is shallow (max k = 3),
so watch how quickly targeted failures flatten it compared to random
ones.

Run:  python examples/road_network_resilience.py
"""

import random

from repro import CoreService, load_dataset


def failure_plan(svc: CoreService, failures: int, mode: str) -> list:
    """The edges to fail: a seeded random sample, or the edges whose
    smaller endpoint coreness is highest first (ties by ``repr``)."""
    edges = list(svc.graph.edges())
    if mode == "targeted":
        edges.sort(key=lambda e: (-min(svc.core(e[0]), svc.core(e[1])), repr(e)))
    else:
        random.Random(3).shuffle(edges)
    return edges[:failures]


def main() -> dict:
    """Run both failure modes; returns each mode's final session."""
    dataset = load_dataset("ca", seed=3)
    failures = dataset.graph().m // 4

    sessions = {}
    for mode in ("random", "targeted"):
        svc = CoreService.open(dataset.edges)
        before = svc.spectrum()
        start = svc.degeneracy()
        plan = failure_plan(svc, failures, mode)
        demotions = sum(svc.remove(u, v).demotions for u, v in plan)
        print(f"--- {mode} failures ({len(plan)} edges removed) ---")
        print(f"  core spectrum before: {dict(sorted(before.items()))}")
        print(f"  core spectrum after:  {dict(sorted(svc.spectrum().items()))}")
        print(f"  total core demotions: {demotions}")
        print(f"  degeneracy trajectory: {start} -> {svc.degeneracy()}")
        sessions[mode] = svc
    return sessions


if __name__ == "__main__":
    main()
