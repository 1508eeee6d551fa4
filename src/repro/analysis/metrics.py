"""Aggregation of per-update measurements across a workload.

The experiments repeatedly need the same reductions over a stream of
:class:`~repro.engine.base.UpdateResult` + wall-clock samples: totals,
visited/changed ratios (Fig. 2), visited-size histograms (Fig. 1) and
accumulated times (Table II).  :class:`UpdateLog` collects them once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from repro.analysis.distributions import FIG1_BOUNDS, bucket_proportions, ratio_sum
from repro.engine.base import UpdateResult


@dataclass
class UpdateLog:
    """Per-update measurements for one engine over one workload."""

    engine: str = ""
    kinds: list[str] = field(default_factory=list)
    visited: list[int] = field(default_factory=list)
    changed: list[int] = field(default_factory=list)
    seconds: list[float] = field(default_factory=list)

    def record(self, result: UpdateResult, elapsed: float) -> None:
        """Append one update's outcome."""
        self.kinds.append(result.kind)
        self.visited.append(result.visited)
        self.changed.append(len(result.changed))
        self.seconds.append(elapsed)

    def extend(self, results: Iterable[UpdateResult], elapsed: float) -> None:
        """Append several updates that were timed as one batch.

        The batch time is attributed to the last update; per-update times
        are zero for the others (used when only totals matter).
        """
        results = list(results)
        for i, result in enumerate(results):
            self.record(result, elapsed if i == len(results) - 1 else 0.0)

    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.kinds)

    @property
    def total_seconds(self) -> float:
        """Accumulated wall-clock time (the Table II quantity)."""
        return sum(self.seconds)

    @property
    def total_visited(self) -> int:
        return sum(self.visited)

    @property
    def total_changed(self) -> int:
        return sum(self.changed)

    def visited_to_changed_ratio(self) -> float:
        """``sum |visited| / sum |V*|`` — the Fig. 2 statistic."""
        return ratio_sum(self.visited, self.changed)

    def visited_proportions(self, bounds=FIG1_BOUNDS) -> list[float]:
        """Bucketed distribution of per-update visited counts (Fig. 1)."""
        return bucket_proportions(self.visited, bounds)
