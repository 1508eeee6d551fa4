"""Checkpoint and restore a CoreService session across "restarts".

Index creation is the one-time cost of adopting core maintenance
(Table III of the paper), and it is linear: one decomposition plus the
k-order build.  Reading a stored index back measured no faster than
building it, so a checkpoint holds what the index is a function of —
the graph's vertices and edges, plus the engine name — and
``CoreService.load`` builds the index once.  A malformed checkpoint
fails fast with ``StaleIndexError``, and the restored session
subscribes and commits like the original.

Run:  python examples/index_checkpointing.py
"""

import tempfile
import time
from pathlib import Path

from repro import CoreService, load_dataset


def main() -> None:
    dataset = load_dataset("livejournal", scale=0.6, seed=21)

    started = time.perf_counter()
    svc = CoreService.open(dataset.edges)
    build_seconds = time.perf_counter() - started
    print(f"cold index build: {build_seconds:.3f}s "
          f"(n={svc.graph.n}, m={svc.graph.m})")

    # Serve some traffic, then checkpoint.
    churn = dataset.edges[:200]
    with svc.transaction() as tx:
        tx.remove_many(churn)
    with svc.transaction() as tx:
        tx.insert_many(churn[:120])

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "core-index.json"
        started = time.perf_counter()
        svc.save(path)
        print(f"checkpoint written in {time.perf_counter() - started:.3f}s "
              f"({path.stat().st_size / 1024:.0f} KiB)")

        # "Restart": read the graph back and build the index once.
        started = time.perf_counter()
        restored = CoreService.load(path)
        restore_seconds = time.perf_counter() - started
        print(f"restore (read + one index build): {restore_seconds:.3f}s")

        assert restored.cores() == svc.cores()
        # The restored service resumes exactly where the old one stopped
        # — including live event subscriptions.
        promotions = []
        restored.subscribe(promotions.append)
        with restored.transaction() as tx:
            tx.insert_many(churn[120:])
        print(
            "restored service resumed updates; degeneracy "
            f"{restored.degeneracy()}, {len(promotions)} core events "
            "delivered"
        )
        restored.engine.check()  # the full index audit
        print("restored index passes the full invariant audit")


if __name__ == "__main__":
    main()
