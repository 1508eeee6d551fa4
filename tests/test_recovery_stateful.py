"""Stateful property testing of the durability path.

Hypothesis drives a durable :class:`CoreService` session like a chaos
monkey: random commits, crashes injected at random registered fault
points (abandoning the live session exactly as a dead process would),
and recoveries — interleaved in any order it can dream up.  A naive
shadow graph tracks what the write-ahead contract says must be durable:
a commit that returned a receipt is in the shadow; a commit killed
before its log append never happened; a commit killed after the append
is REPLAYED into the shadow at the next recovery (write-ahead means the
log, not the engine, is the source of truth).  After every recovery the
recovered cores must equal a from-scratch decomposition of the shadow.

Commits come in two shapes: single-op transactions and multi-edge
transactions whose removals coalesce into one batch-native removal run
(the joint-cascade path), so WAL replay of run-scheduled batches is
crash-tested too.  A third shape is a multi-edge commit forced down the
rebuild path (apply to the graph, build the index once) and crashed at
``engine.mid_batch`` before or between its runs.  Run on both
order-family engines, so the replay path is proven engine-independent.
"""

import tempfile

from hypothesis import settings
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    precondition,
    rule,
)
from hypothesis import strategies as st

from repro.core.decomposition import core_numbers
from repro.graphs.undirected import DynamicGraph
from repro.service import CoreService
from repro.testing import FaultPlan, InjectedFault

VERTICES = st.integers(0, 7)

#: Crash points on the single-engine durable commit path, tagged with
#: whether a commit killed there survives recovery (see test_faults).
CRASH_POINTS = [
    ("service.before_commit", False),
    ("wal.before_append", False),
    ("wal.mid_append", False),
    ("wal.after_append", True),
    ("wal.before_fsync", True),
    ("engine.mid_batch", True),
]


class DurableSessionMachine(RuleBasedStateMachine):
    """Random walk over commit / crash / recover / compact."""

    engine = "order"

    @initialize()
    def setup(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.log = f"{self.tmp.name}/session.wal"
        self.svc = CoreService.open(
            log=self.log, fsync="always", engine=self.engine
        )
        self.shadow = DynamicGraph()
        # Ops logged (hence durable) but possibly not yet in `shadow`
        # because the crash killed the session after the append.
        self.pending = None

    def teardown(self):
        if self.svc is not None:
            self.svc.close()
        self.tmp.cleanup()

    def _op(self, u, v):
        """One valid random op against the shadow, or None."""
        if u == v:
            return None
        if self.shadow.has_edge(u, v):
            return ("remove", u, v)
        return ("insert", u, v)

    def _run_ops(self, pairs):
        """A multi-edge op list: all removals first, then all inserts,
        each valid in order — so the commit lands as one multi-edge
        removal *run* (the joint-cascade path) plus one insertion run,
        exactly the batch-native machinery WAL replay must reproduce."""
        removes, inserts, seen = [], [], set()
        for u, v in pairs:
            if u == v:
                continue
            edge = (min(u, v), max(u, v))
            if edge in seen:
                continue
            seen.add(edge)
            if self.shadow.has_edge(u, v):
                removes.append(("remove", u, v))
            else:
                inserts.append(("insert", u, v))
        return removes + inserts

    def _commit_ops(self, ops):
        with self.svc.transaction() as tx:
            for kind, u, v in ops:
                (tx.insert if kind == "insert" else tx.remove)(u, v)

    def _commit_op(self, op):
        self._commit_ops([op])

    def _apply_to_shadow(self, op):
        kind, u, v = op
        if kind == "insert":
            self.shadow.add_edge(u, v)
        else:
            self.shadow.remove_edge(u, v)

    @precondition(lambda self: self.svc is not None)
    @rule(u=VERTICES, v=VERTICES)
    def commit(self, u, v):
        op = self._op(u, v)
        if op is None:
            return
        self._commit_op(op)
        self._apply_to_shadow(op)

    @precondition(lambda self: self.svc is not None)
    @rule(
        u=VERTICES,
        v=VERTICES,
        crash=st.sampled_from(CRASH_POINTS),
    )
    def crash_mid_commit(self, u, v, crash):
        point, durable = crash
        op = self._op(u, v)
        if op is None:
            return
        with FaultPlan(seed=1).crash(point) as plan:
            try:
                self._commit_op(op)
            except InjectedFault:
                pass
        if not plan.fired:
            # Point not on this engine's path for this op: the commit
            # simply succeeded.
            self._apply_to_shadow(op)
            return
        # The "process" died: abandon the session without close().
        self.svc = None
        self.pending = [op] if durable else None

    @precondition(lambda self: self.svc is not None)
    @rule(pairs=st.lists(st.tuples(VERTICES, VERTICES), min_size=2, max_size=8))
    def commit_removal_run(self, pairs):
        """A multi-edge transaction whose removals coalesce into one
        batch-native run (one joint cascade per affected level)."""
        ops = self._run_ops(pairs)
        if not ops:
            return
        self._commit_ops(ops)
        for op in ops:
            self._apply_to_shadow(op)

    @precondition(lambda self: self.svc is not None)
    @rule(
        pairs=st.lists(st.tuples(VERTICES, VERTICES), min_size=2, max_size=8),
        crash=st.sampled_from(CRASH_POINTS),
    )
    def crash_mid_removal_run(self, pairs, crash):
        """Crash a multi-edge removal-run commit: if the WAL append
        landed, recovery must replay the whole run through the
        batch-native path and agree with the shadow."""
        point, durable = crash
        ops = self._run_ops(pairs)
        if not ops:
            return
        with FaultPlan(seed=1).crash(point) as plan:
            try:
                self._commit_ops(ops)
            except InjectedFault:
                pass
        if not plan.fired:
            for op in ops:
                self._apply_to_shadow(op)
            return
        self.svc = None
        self.pending = ops if durable else None

    @precondition(lambda self: self.svc is not None)
    @rule(
        pairs=st.lists(st.tuples(VERTICES, VERTICES), min_size=2, max_size=8),
        hits=st.sampled_from([1, 2]),
    )
    def crash_mid_rebuilt_batch(self, pairs, hits):
        """Crash a multi-edge commit that the engine applies by
        rebuilding its index, at ``engine.mid_batch`` before its first
        run or (``hits=2``) between its removal and insertion runs.  The
        append landed, so recovery must replay the whole batch."""
        ops = self._run_ops(pairs)
        if not ops:
            return
        # Force the rebuild path for this one commit, whatever the
        # batch's size against the graph.
        self.svc.engine._rebuild_pays = lambda n_ops: True
        with FaultPlan(seed=1).crash("engine.mid_batch", hits=hits) as plan:
            try:
                self._commit_ops(ops)
            except InjectedFault:
                pass
        if not plan.fired:
            del self.svc.engine._rebuild_pays
            for op in ops:
                self._apply_to_shadow(op)
            return
        self.svc = None
        self.pending = ops

    @precondition(lambda self: self.svc is None)
    @rule()
    def recover(self):
        self.svc = CoreService.recover(self.log, fsync="always")
        if self.pending is not None:
            for op in self.pending:
                self._apply_to_shadow(op)
            self.pending = None
        self.check_agreement()

    @precondition(lambda self: self.svc is not None)
    @rule()
    def compact(self):
        self.svc.compact()
        self.check_agreement()

    @precondition(lambda self: self.svc is not None)
    @rule()
    def check_agreement(self):
        assert self.svc.cores() == core_numbers(self.shadow)
        self.svc.engine.check()


class SimplifiedMachine(DurableSessionMachine):
    engine = "order-simplified"


_SETTINGS = settings(
    max_examples=12, stateful_step_count=25, deadline=None
)

TestOrder = DurableSessionMachine.TestCase
TestOrder.settings = _SETTINGS
TestSimplified = SimplifiedMachine.TestCase
TestSimplified.settings = _SETTINGS
