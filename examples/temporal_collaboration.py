"""Who is in the densest collaboration core, month by month?

A DBLP-style temporal collaboration network: papers arrive in timestamp
order and every paper adds a clique among its authors.  Each epoch of
collaborations commits as one service transaction, a subscriber tallies
promotions, and the "elite" core — the max-k core — is read straight
from the query layer.  Its edge density is a 1/2-approximation of the
densest subgraph's: the max-core of degeneracy ``k`` has density at
least ``k / 2``, and no subgraph is denser than ``k``.

Run:  python examples/temporal_collaboration.py
"""

from repro import CoreService, load_dataset


def main() -> None:
    dataset = load_dataset("dblp", scale=0.4, seed=11)
    stream = dataset.stream()
    # Start from the first 60% of history, stream in the remaining 40%.
    split = int(len(stream) * 0.6)
    svc = CoreService.open(stream.graph_before(split))

    _, future = stream.split_at(split)
    epochs = 8
    per_epoch = max(1, len(future) // epochs)
    print(f"replaying {len(future)} collaborations in {epochs} epochs")
    for epoch in range(epochs):
        chunk = future[epoch * per_epoch : (epoch + 1) * per_epoch]
        with svc.transaction() as tx:
            for u, v in chunk:
                if not svc.graph.has_edge(u, v):
                    tx.insert(u, v)
        promoted = tx.receipt.promotions
        top = svc.degeneracy()
        elite = svc.kcore(top).subgraph()
        print(
            f"epoch {epoch + 1}: +{len(chunk):4d} edges, "
            f"{promoted:3d} promotions | elite core k={top} "
            f"({elite.n} authors, density {elite.m / elite.n:.2f})"
        )


if __name__ == "__main__":
    main()
