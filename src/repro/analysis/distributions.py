"""Distribution helpers backing the paper's figures.

* :func:`bucket_proportions` — the stacked-bar buckets of Fig. 1
  (≤3, ≤10, ≤100, ≤1000, >1000 vertices visited per insertion);
* :func:`cumulative_distribution` — the CDF curves of Figs. 5 and 10;
* :func:`ratio_sum` — the aggregate ratio of Fig. 2
  (``sum |V'| / sum |V*|`` over an insertion stream).
"""

from __future__ import annotations

from typing import Iterable, Sequence

#: Fig. 1's bucket boundaries.
FIG1_BOUNDS: tuple[int, ...] = (3, 10, 100, 1000)

#: Human-readable labels for :data:`FIG1_BOUNDS` buckets.
FIG1_LABELS: tuple[str, ...] = ("<=3", "<=10", "<=100", "<=1000", ">1000")


def bucket_proportions(
    values: Iterable[int],
    bounds: Sequence[int] = FIG1_BOUNDS,
) -> list[float]:
    """Proportion of values in each bucket ``(-inf, b0], (b0, b1], ...,
    (b_last, inf)``.  Returns ``len(bounds) + 1`` proportions summing to 1
    (all zeros for empty input)."""
    counts = [0] * (len(bounds) + 1)
    total = 0
    for value in values:
        total += 1
        for i, bound in enumerate(bounds):
            if value <= bound:
                counts[i] += 1
                break
        else:
            counts[-1] += 1
    if total == 0:
        return [0.0] * len(counts)
    return [c / total for c in counts]


def cumulative_distribution(
    values: Iterable[float],
) -> tuple[list[float], list[float]]:
    """Empirical CDF: returns ``(xs, fractions)`` where ``fractions[i]`` is
    the fraction of values ``<= xs[i]``; ``xs`` are the distinct values in
    ascending order."""
    ordered = sorted(values)
    n = len(ordered)
    xs: list[float] = []
    fractions: list[float] = []
    for i, value in enumerate(ordered):
        if i + 1 < n and ordered[i + 1] == value:
            continue
        xs.append(value)
        fractions.append((i + 1) / n)
    return xs, fractions


def ratio_sum(numerators: Iterable[int], denominators: Iterable[int]) -> float:
    """``sum(numerators) / sum(denominators)``; the Fig. 2 statistic.

    A zero denominator sum (no core number ever changed) returns
    ``float('inf')`` if any vertex was visited, else 1.0 — matching the
    paper's convention that an ideal algorithm visits exactly ``V*``.
    """
    num = sum(numerators)
    den = sum(denominators)
    if den == 0:
        return float("inf") if num else 1.0
    return num / den


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-quantile (0..1) by nearest-rank; raises on empty input."""
    if not values:
        raise ValueError("percentile of empty sequence")
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile {q} outside [0, 1]")
    ordered = sorted(values)
    index = min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))
    return ordered[index]
