"""Community tracking over a social-network edge stream.

The paper's introduction motivates core maintenance with community search
on evolving social networks.  This example replays the facebook stand-in
as a live stream through a ``CoreService`` session: friendships commit in
small transactions, a **subscription** watches one user's coreness move,
and the k-core community queries never trigger a recomputation.

A user's k-core community is the connected component holding the user in
the subgraph induced by the ``k``-core: a breadth-first search over the
served graph that only steps onto members of ``svc.kcore(k)``.

Run:  python examples/social_stream_communities.py
"""

from repro import CoreService
from repro import load_dataset
from repro.bench.workloads import make_workload


def community(svc: CoreService, user, k: int) -> set:
    """The connected component of ``user`` inside the ``k``-core
    (empty when the user is outside it)."""
    members = svc.kcore(k)
    if user not in members:
        return set()
    seen, frontier = {user}, [user]
    while frontier:
        for friend in svc.graph.neighbors(frontier.pop()):
            if friend not in seen and friend in members:
                seen.add(friend)
                frontier.append(friend)
    return seen


def tightest_community(svc: CoreService, user, min_size: int):
    """The largest ``k`` whose community of ``user`` still has
    ``min_size`` members, with that community; ``k = 0`` (the whole
    component) when no level does."""
    for k in range(svc.core(user), 0, -1):
        members = community(svc, user, k)
        if len(members) >= min_size:
            return k, members
    return 0, community(svc, user, 0)


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
        print(
            f"after {i + len(chunk):5d} new friendships: "
            f"community size {len(community(svc, user, k)):4d}, "
            f"user coreness {svc.core(user)}"
        )

    level, members = tightest_community(svc, user, min_size=5)
    print(
        f"final: tightest community of user {user} has "
        f"{len(members)} members at k={level}"
    )


if __name__ == "__main__":
    main()
