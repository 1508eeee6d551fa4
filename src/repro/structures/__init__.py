"""Low-level data structures used by the core-maintenance engines.

The paper's index (Section VI) is built from these structures, all of
which are implemented here from scratch:

* :class:`~repro.structures.sequence.TaggedOrderList` — the k-order block
  (the paper's ``A_k``): a Dietz–Sleator order-maintenance list (integer
  labels, Bender-style relabeling) that answers "does ``u`` precede
  ``v``?" in ``O(1)``, instrumented through
  :class:`~repro.structures.sequence.SequenceStats`.
* :class:`~repro.structures.buckets.DegreeBuckets` — bucketed degree
  queues powering the staged peels (``CoreDecomp``) of the ``"large"``
  and ``"random"`` k-order generation heuristics.
"""

from repro.structures.buckets import DegreeBuckets
from repro.structures.sequence import SequenceStats, TaggedOrderList

__all__ = [
    "DegreeBuckets",
    "SequenceStats",
    "TaggedOrderList",
]
