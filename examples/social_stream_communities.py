"""Community tracking over a social-network edge stream.

The paper's introduction motivates core maintenance with community search
on evolving social networks.  This example replays the facebook stand-in
as a live stream through a ``CoreService`` session: friendships commit in
small transactions, a **subscription** watches one user's coreness move,
and the k-core community queries never trigger a recomputation.

Run:  python examples/social_stream_communities.py
"""

from repro import CoreService
from repro import load_dataset
from repro.applications.community import best_community, kcore_community
from repro.bench.workloads import make_workload


def main() -> None:
    dataset = load_dataset("facebook", scale=0.5, seed=7)
    workload = make_workload(dataset, n_updates=1500, seed=7)
    svc = CoreService.open(workload.base_graph())

    # Track the most active user (highest initial coreness).
    user, coreness = svc.top(1)[0]
    k = max(2, coreness // 2)
    print(f"tracking user {user} at cohesion level k={k}")

    # React to the tracked user's moves as they commit.
    def on_event(event):
        if event.vertex == user:
            print(
                f"  user {user} moved: coreness "
                f"{event.old_core} -> {event.new_core} "
                f"(commit #{event.receipt_id})"
            )

    svc.subscribe(on_event, min_k=k)

    checkpoints = max(1, len(workload.update_edges) // 5)
    for i in range(0, len(workload.update_edges), checkpoints):
        chunk = workload.update_edges[i : i + checkpoints]
        with svc.transaction() as tx:
            tx.insert_many(chunk)
        community = kcore_community(svc.engine, user, k)
        print(
            f"after {i + len(chunk):5d} new friendships: "
            f"community size {len(community):4d}, "
            f"user coreness {svc.core(user)}"
        )

    level, community = best_community(svc.engine, user, min_size=5)
    print(
        f"final: tightest community of user {user} has "
        f"{len(community)} members at k={level}"
    )


if __name__ == "__main__":
    main()
