"""The paper's contribution: k-order based core maintenance.

Public entry points:

* :func:`~repro.core.decomposition.core_numbers` — static core
  decomposition (Algorithm 1, ``O(m + n)``).
* :func:`~repro.core.decomposition.korder_decomposition` — decomposition
  that also emits a k-order and remaining degrees, under one of the three
  generation heuristics of Section VI.
* :class:`~repro.core.korder.KOrder` — the maintained order index.
* :class:`~repro.core.maintainer.OrderedCoreMaintainer` — the dynamic
  engine (``OrderInsert`` / ``OrderRemoval``).
* :class:`~repro.core.simplified.SimplifiedCoreMaintainer` — the
  Guo–Sekerinski simplified variant (same index and kernel; ``mcd``
  kept exact without a repair pass).
"""

from repro.engine.base import CoreMaintainer, UpdateResult
from repro.core.decomposition import (
    KOrderDecomposition,
    core_numbers,
    korder_decomposition,
)
from repro.core.korder import KOrder
from repro.core.maintainer import OrderedCoreMaintainer
from repro.core.simplified import SimplifiedCoreMaintainer
from repro.core.snapshot import (
    from_snapshot,
    load_snapshot,
    read_snapshot,
    save_snapshot,
    to_snapshot,
)

__all__ = [
    "CoreMaintainer",
    "KOrder",
    "KOrderDecomposition",
    "OrderedCoreMaintainer",
    "SimplifiedCoreMaintainer",
    "UpdateResult",
    "core_numbers",
    "from_snapshot",
    "korder_decomposition",
    "load_snapshot",
    "read_snapshot",
    "save_snapshot",
    "to_snapshot",
]
