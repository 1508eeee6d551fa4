"""Engine registry: one way to build every maintainer, by name.

Every consumer (service, streaming monitor, benchmarks, CLI) creates
engines through :func:`make_engine` instead of importing concrete classes.

Names
-----
``order``
    The paper's order-based engine
    (:class:`~repro.core.maintainer.OrderedCoreMaintainer`), built on the
    paper's ``"small"`` k-order generation heuristic.
``order-simplified``
    The Guo–Sekerinski simplified order-based engine
    (:class:`~repro.core.simplified.SimplifiedCoreMaintainer`): same
    index and kernel, but ``mcd`` (``= d_in + d_out``) stays exact
    without a repair pass after updates.  This is
    :data:`DEFAULT_ENGINE` — what consumers get when they do not pick
    an engine — per the ``bench_simplified_ablation.py`` measurements.
``trav-<h>``
    The traversal baseline with hop count ``h >= 2``, resolved from the
    name's pattern (any ``h`` works; none is pre-registered).
``naive``
    Full recomputation after every update (oracle / lower bound).

The one engine option is ``audit`` (run the engine's invariant audit
after every update; the naive engine has none to run).  No engine is
randomized, so there is no ``seed``; a mistyped keyword is Python's own
``TypeError``:

>>> from repro.graphs.undirected import DynamicGraph
>>> make_engine("naive", DynamicGraph(), adit=True)
Traceback (most recent call last):
    ...
TypeError: make_engine() got an unexpected keyword argument 'adit'
"""

from __future__ import annotations

import re

from repro.engine.base import CoreMaintainer
from repro.graphs.undirected import DynamicGraph

#: The engine consumers get when they do not pick one (CoreService,
#: the streaming monitor, the server, scenario replay, the CLI).  Set to
#: the simplified order engine by the PR-10 ablation: with batch-native
#: runs on both sides it ties the mixed-batched regime (1.03x median,
#: within noise) and wins every per-edge regime (insert 1.1-1.4x,
#: remove 1.6-2.1x) because it keeps ``mcd`` exact without a repair
#: pass.  See ROADMAP.md and BENCH_simplified_ablation.json.
DEFAULT_ENGINE = "order-simplified"

_ENGINES = ("naive", "order", "order-simplified")
_TRAV_PATTERN = re.compile(r"^trav-(\d+)$")


def available_engines() -> tuple[str, ...]:
    """Registered engine names (``trav-<h>`` accepts any ``h >= 2``)."""
    return _ENGINES


def is_engine_name(name: str) -> bool:
    """True when :func:`make_engine` would resolve ``name``.

    The single source of truth for name validation — CLIs and configs
    should call this instead of re-implementing the ``trav-<h>`` pattern.
    """
    if name in _ENGINES:
        return True
    match = _TRAV_PATTERN.match(name)
    return bool(match) and int(match.group(1)) >= 2


def make_engine(
    name: str, graph: DynamicGraph, *, audit: bool = False
) -> CoreMaintainer:
    """Instantiate a maintenance engine by registry name.

    >>> from repro.graphs.undirected import DynamicGraph
    >>> make_engine("order", DynamicGraph([(0, 1)])).name
    'order'
    >>> make_engine("trav-3", DynamicGraph([(0, 1)]), audit=True).name
    'trav-3'

    Unknown names raise ``ValueError`` listing what is available.
    Imports happen here so the registry can be imported from anywhere
    (including the engine base module's own consumers) without
    circular-import ceremony.
    """
    if name == "order":
        from repro.core.maintainer import OrderedCoreMaintainer

        return OrderedCoreMaintainer(graph, audit=audit)
    if name == "order-simplified":
        from repro.core.simplified import SimplifiedCoreMaintainer

        return SimplifiedCoreMaintainer(graph, audit=audit)
    if name == "naive":
        from repro.naive.maintainer import NaiveCoreMaintainer

        return NaiveCoreMaintainer(graph)
    if is_engine_name(name):
        from repro.traversal.maintainer import TraversalCoreMaintainer

        h = int(_TRAV_PATTERN.match(name).group(1))
        return TraversalCoreMaintainer(graph, h=h, audit=audit)
    raise ValueError(
        f"unknown engine {name!r}; registered engines: "
        f"{', '.join(available_engines())} (plus any 'trav-<h>')"
    )
