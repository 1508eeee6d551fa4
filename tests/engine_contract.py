"""The cross-engine conformance contract: one source of engine lists.

Every multi-engine harness in the suite parametrizes from this module
instead of keeping its own ``ENGINES`` / ``BACKENDS`` tuple, so a newly
registered engine name is picked up by *every* harness automatically —
the drift where a new variant silently missed half the batteries is
structurally impossible.  ``tests/test_engine_contract.py`` runs the
conformance battery proper over :func:`contract_engines` and asserts
registry coverage, so an engine cannot opt out either.

Lists
-----
:func:`contract_engines`
    Every registered name plus ``trav-2``, the one instance of the
    ``trav-<h>`` pattern (every ``h`` shares one code path).
:func:`order_family_engines`
    The order-family subset — engines that carry the full index
    (k-order + degrees) and the batch/service contracts the
    service-level suites exercise.
:func:`engine_variants` / :func:`order_family_variants`
    The lists above plus configurations no registry name spells but the
    code still runs (:data:`POLICY_VARIANTS`, :data:`TRAV_VARIANTS`);
    harnesses that build engines in-process run over these and build
    each one with :func:`build_engine`.
:data:`BATCH_PATHS`
    The two ways ``apply_batch`` applies a batch.  Suites that pin what
    a batch does run each path by name, so the rebuild rule cannot
    route a test's batches away from the code it claims to test.
"""

from __future__ import annotations

from repro.core.maintainer import OrderedCoreMaintainer
from repro.engine.registry import available_engines, make_engine

#: The default engine under the other two Section VI generation
#: policies, written ``order/<policy>``.  ``policy=`` is an
#: ``OrderedCoreMaintainer`` constructor argument (the Fig. 9 experiment
#: sets it), not a registry option; it decides the initial k-order that
#: every later update walks.  ``small`` is plain ``order``.
POLICY_VARIANTS = ("order/large", "order/random")

#: Hop counts of the ``trav-<h>`` pattern beyond ``trav-2``: ``h`` is the
#: depth of the degree hierarchy the traversal prunes with.
TRAV_VARIANTS = ("trav-3", "trav-4", "trav-5", "trav-6")

#: ``maintain_batch`` is the incremental run loop, ``rebuild_batch``
#: applies the batch to the graph and recomputes the core numbers once
#: (the order family builds its k-order and ``mcd`` on the next update).
BATCH_PATHS = ("maintain_batch", "rebuild_batch")


def contract_engines() -> tuple[str, ...]:
    """Every engine the conformance battery runs: one name per algorithm."""
    return tuple(sorted(available_engines() + ("trav-2",)))


def order_family_engines() -> tuple[str, ...]:
    """The order-family engines (full-index engines)."""
    return tuple(
        name for name in contract_engines() if name.startswith("order")
    )


def engine_variants() -> tuple[str, ...]:
    """Every contract engine plus the unregistered configurations."""
    return contract_engines() + POLICY_VARIANTS + TRAV_VARIANTS


def order_family_variants() -> tuple[str, ...]:
    """The order-family engines plus the default engine's policies."""
    return order_family_engines() + POLICY_VARIANTS


def build_engine(variant: str, graph, *, audit=False, seed=0):
    """Build ``variant`` (a name from :func:`engine_variants`) over
    ``graph``.  ``seed`` drives the ``order/random`` policy's initial
    k-order; registry names have nothing random and take only ``audit``."""
    name, _, policy = variant.partition("/")
    if policy:
        return OrderedCoreMaintainer(
            graph, policy=policy, seed=seed, audit=audit
        )
    return make_engine(name, graph, audit=audit)


def mixed_batch_stream(rng, n_batches, batch_size, universe):
    """A base edge list plus valid mixed batches over a growing universe.

    The canonical mixed-workload generator shared by the agreement and
    service-event suites.  Removals always target a currently-present
    edge and inserts a currently-absent one (tracked against the
    evolving edge set), so every batch is valid in op order; later
    batches routinely touch vertices no engine has seen yet.
    """
    from repro.engine.batch import Batch

    base_vertices = max(4, universe // 2)
    present: set = set()
    base = []
    for _ in range(base_vertices * 2):
        a, b = rng.sample(range(base_vertices), 2)
        edge = (min(a, b), max(a, b))
        if edge not in present:
            present.add(edge)
            base.append(edge)
    batches = []
    for index in range(n_batches):
        reachable = base_vertices + (
            (universe - base_vertices) * (index + 1) // n_batches
        )
        ops = []
        pending = set(present)
        for _ in range(batch_size):
            if pending and rng.random() < 0.45:
                edge = rng.choice(sorted(pending))
                ops.append(("remove", edge))
                pending.discard(edge)
            else:
                for _ in range(50):
                    a, b = rng.sample(range(reachable), 2)
                    edge = (min(a, b), max(a, b))
                    if edge not in pending:
                        break
                else:
                    continue
                ops.append(("insert", edge))
                pending.add(edge)
        present = pending
        batches.append(Batch(ops))
    return base, batches
