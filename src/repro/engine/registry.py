"""Engine registry and factory: one way to build every maintainer.

Every consumer (streaming monitor, benchmarks, CLI, applications) creates
engines through :func:`make_engine` instead of importing concrete classes,
so new engines plug in with one
:func:`register_engine` call.

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

Every built-in engine accepts exactly the options ``seed`` and
``audit``.  None of them is randomized, so ``seed`` only keeps one
option set valid for every name.
"""

from __future__ import annotations

import inspect
import re
from typing import Callable, Dict, FrozenSet, Optional

from repro.engine.base import CoreMaintainer
from repro.errors import EngineOptionError
from repro.graphs.undirected import DynamicGraph

EngineFactory = Callable[..., CoreMaintainer]

#: The engine consumers get when they do not pick one (CoreService,
#: the streaming monitor, the server, scenario replay, the CLI).  Set to
#: the simplified order engine by the PR-10 ablation: with batch-native
#: runs on both sides it ties the mixed-batched regime (1.03x median,
#: within noise) and wins every per-edge regime (insert 1.1-1.4x,
#: remove 1.6-2.1x) because it keeps ``mcd`` exact without a repair
#: pass.  See ROADMAP.md and BENCH_simplified_ablation.json.
DEFAULT_ENGINE = "order-simplified"

_REGISTRY: Dict[str, EngineFactory] = {}
_TRAV_PATTERN = re.compile(r"^trav-(\d+)$")


def _factory_options(factory: EngineFactory) -> Optional[FrozenSet[str]]:
    """Option names ``factory`` accepts, or ``None`` for "anything".

    The first parameter is the graph and never an option.  A factory
    with a ``**kwargs`` catch-all opts out of validation (it is expected
    to do its own), as does anything :func:`inspect.signature` cannot
    introspect.
    """
    try:
        params = list(inspect.signature(factory).parameters.values())
    except (TypeError, ValueError):  # pragma: no cover - builtins etc.
        return None
    accepted = set()
    for param in params[1:]:
        if param.kind is param.VAR_KEYWORD:
            return None
        if param.kind in (param.POSITIONAL_OR_KEYWORD, param.KEYWORD_ONLY):
            accepted.add(param.name)
    return frozenset(accepted)


def _check_options(
    name: str, factory: EngineFactory, opts: dict, *, reserved: tuple = ()
) -> None:
    """Reject options ``factory`` would not understand.

    Raises :class:`~repro.errors.EngineOptionError` naming the engine
    and every stray keyword — factories must never swallow a typo
    (``adit=True``) silently.  ``reserved`` names parameters the
    registry itself supplies (e.g. the traversal family's ``h``, which
    comes from the engine *name*), so callers cannot collide with them.
    """
    accepted = _factory_options(factory)
    if accepted is None:
        return
    accepted = accepted - set(reserved)
    stray = sorted(set(opts) - accepted)
    if stray:
        raise EngineOptionError(name, tuple(stray), tuple(sorted(accepted)))


def engine_options(name: str) -> Optional[tuple[str, ...]]:
    """Option names :func:`make_engine` accepts for ``name``.

    ``None`` means the factory validates its own options (it takes
    ``**kwargs``).  Raises ``ValueError`` for unknown engine names.

    >>> engine_options("naive")
    ('audit', 'seed')
    """
    factory = _REGISTRY.get(name)
    reserved: tuple = ()
    if factory is None:
        if not is_engine_name(name):
            raise ValueError(f"unknown engine {name!r}")
        factory, reserved = _make_traversal, ("h",)
    accepted = _factory_options(factory)
    if accepted is None:
        return None
    return tuple(sorted(accepted - set(reserved)))


def register_engine(name: str, factory: EngineFactory, *, overwrite: bool = False) -> None:
    """Register ``factory`` under ``name`` for :func:`make_engine`.

    ``factory(graph, **opts)`` must return a :class:`CoreMaintainer`.
    Re-registering an existing name requires ``overwrite=True``.
    """
    if not overwrite and name in _REGISTRY:
        raise ValueError(f"engine {name!r} is already registered")
    _REGISTRY[name] = factory


def available_engines() -> tuple[str, ...]:
    """Registered engine names (``trav-<h>`` accepts any ``h >= 2``)."""
    return tuple(sorted(_REGISTRY))


def is_engine_name(name: str) -> bool:
    """True when :func:`make_engine` would resolve ``name``.

    The single source of truth for name validation — CLIs and configs
    should call this instead of re-implementing the ``trav-<h>`` pattern.
    """
    if name in _REGISTRY:
        return True
    match = _TRAV_PATTERN.match(name)
    return bool(match) and int(match.group(1)) >= 2


def make_engine(name: str, graph: DynamicGraph, **opts) -> CoreMaintainer:
    """Instantiate a maintenance engine by registry name.

    >>> from repro.graphs.undirected import DynamicGraph
    >>> make_engine("order", DynamicGraph([(0, 1)])).name
    'order'

    Unknown names raise ``ValueError`` listing what is available;
    unknown *options* raise :class:`~repro.errors.EngineOptionError`
    naming the engine, the stray keyword and what the engine accepts —
    a typoed option must fail loudly, never be swallowed by a factory.
    """
    factory = _REGISTRY.get(name)
    if factory is None:
        match = _TRAV_PATTERN.match(name)
        if match:
            _check_options(name, _make_traversal, opts, reserved=("h",))
            return _make_traversal(graph, h=int(match.group(1)), **opts)
        raise ValueError(
            f"unknown engine {name!r}; registered engines: "
            f"{', '.join(available_engines())} (plus any 'trav-<h>')"
        )
    _check_options(name, factory, opts)
    return factory(graph, **opts)


# ----------------------------------------------------------------------
# Built-in engines.  Imports happen inside the factories so the registry
# can be imported from anywhere (including the engine base module's own
# consumers) without circular-import ceremony.
# ----------------------------------------------------------------------

def _make_order(graph: DynamicGraph, seed=None, audit: bool = False):
    from repro.core.maintainer import OrderedCoreMaintainer

    return OrderedCoreMaintainer(graph, audit=audit)


def _make_simplified(graph: DynamicGraph, seed=None, audit: bool = False):
    from repro.core.simplified import SimplifiedCoreMaintainer

    return SimplifiedCoreMaintainer(graph, audit=audit)


def _make_traversal(graph: DynamicGraph, h: int = 2, seed=None, audit: bool = False):
    from repro.traversal.maintainer import TraversalCoreMaintainer

    return TraversalCoreMaintainer(graph, h=h, audit=audit)


def _make_naive(graph: DynamicGraph, seed=None, audit: bool = False):
    from repro.naive.maintainer import NaiveCoreMaintainer

    return NaiveCoreMaintainer(graph)


register_engine("order", _make_order)
register_engine("order-simplified", _make_simplified)
register_engine("naive", _make_naive)
