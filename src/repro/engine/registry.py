"""Engine registry and factory: one way to build every maintainer.

Every consumer (streaming monitor, benchmarks, CLI, applications) creates
engines through :func:`make_engine` instead of importing concrete classes,
so new engines plug in with one
:func:`register_engine` call.

Names
-----
``order``
    The paper's order-based engine (alias ``order-small``; also
    ``order-large`` / ``order-random`` for the Section VI generation
    heuristics).  All order engines accept ``sequence="om" | "treap"``
    to pick the k-order block backend (O(1) tagged order-maintenance
    lists vs O(log n) order-statistic treaps); ``order-om`` and
    ``order-treap`` are aliases that pin the backend by name, for
    CLI ``--engine`` selection.
``order-simplified``
    The Guo–Sekerinski simplified order-based engine
    (:class:`~repro.core.simplified.SimplifiedCoreMaintainer`): same
    k-order index, but two order-local degrees replace the maintained
    ``mcd`` so no repair pass runs after updates.  This is
    :data:`DEFAULT_ENGINE` — what consumers get when they do not pick
    an engine — per the PR-10 ablation.  Carries the same
    policy/backend alias block as ``order``
    (``order-simplified-{small,large,random,om,treap}``) and the same
    ``sequence`` / ``policy`` options.
``trav-<h>``
    The traversal baseline with hop count ``h >= 2`` (``trav`` alone means
    ``trav-2``); any ``h`` is accepted, not just the pre-listed ones.
``naive``
    Full recomputation after every update (oracle / lower bound).

Factories ignore a ``seed`` keyword when the engine has no randomness, so
callers can pass a common option set to any engine name.
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
#: remove 1.6-2.1x) while maintaining strictly less state (no ``mcd``,
#: no repair pass).  See ROADMAP.md and BENCH_simplified_ablation.json.
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
    (``sequnce="om"``) silently.  ``reserved`` names parameters the
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

def _make_order(policy: str, sequence: str = None):
    # sequence=None defers to the maintainer's default (korder's
    # DEFAULT_SEQUENCE), so the default backend lives in one place.
    def factory(
        graph: DynamicGraph,
        seed=0,
        audit: bool = False,
        policy: str = policy,
        sequence: str = sequence,
    ):
        from repro.core.maintainer import OrderedCoreMaintainer

        opts = {} if sequence is None else {"sequence": sequence}
        return OrderedCoreMaintainer(
            graph, policy=policy, seed=seed, audit=audit, **opts
        )

    return factory


def _make_simplified(policy: str, sequence: str = None):
    # Same deferred-default contract as _make_order.
    def factory(
        graph: DynamicGraph,
        seed=0,
        audit: bool = False,
        policy: str = policy,
        sequence: str = sequence,
    ):
        from repro.core.simplified import SimplifiedCoreMaintainer

        opts = {} if sequence is None else {"sequence": sequence}
        return SimplifiedCoreMaintainer(
            graph, policy=policy, seed=seed, audit=audit, **opts
        )

    return factory


def _make_traversal(graph: DynamicGraph, h: int = 2, seed=None, audit: bool = False):
    from repro.traversal.maintainer import TraversalCoreMaintainer

    return TraversalCoreMaintainer(graph, h=h, audit=audit)


def _make_naive(graph: DynamicGraph, seed=None, audit: bool = False):
    from repro.naive.maintainer import NaiveCoreMaintainer

    return NaiveCoreMaintainer(graph)


def _register_order_family(base: str, maker) -> None:
    """Register ``base`` plus the alias block every order-family engine
    carries: ``-small``/``-large``/``-random`` pin the Section VI
    generation policy, ``-om``/``-treap`` pin the sequence backend
    (under the paper's ``"small"`` policy).  ``maker(policy, sequence=)``
    must return a factory, like :func:`_make_order`."""
    register_engine(base, maker("small"))
    for policy in ("small", "large", "random"):
        register_engine(f"{base}-{policy}", maker(policy))
    for sequence in ("om", "treap"):
        register_engine(f"{base}-{sequence}", maker("small", sequence=sequence))


_register_order_family("order", _make_order)
_register_order_family("order-simplified", _make_simplified)


def _make_traversal_at(h: int):
    def factory(graph: DynamicGraph, seed=None, audit: bool = False):
        return _make_traversal(graph, h=h, seed=seed, audit=audit)

    return factory


register_engine("naive", _make_naive)
register_engine("trav", _make_traversal_at(2))
for _h in (2, 3, 4, 5, 6):
    register_engine(f"trav-{_h}", _make_traversal_at(_h))
