"""Unit tests for the CoreService façade: sessions, transactions,
queries, subscriptions, and checkpointing."""

import pytest

from engine_contract import BATCH_PATHS
from repro.core.decomposition import core_numbers
from repro.engine import DEFAULT_ENGINE
from repro.engine.batch import Batch
from repro.errors import (
    SelfLoopError,
    TransactionError,
    WorkloadError,
)
from repro.graphs.undirected import DynamicGraph
from repro.service import CommitReceipt, CoreEvent, CoreService
from repro.streaming import SlidingWindowCoreMonitor
from repro.testing.faults import FaultPlan, InjectedFault

TRIANGLE = [(0, 1), (1, 2), (2, 0)]


class TestSessionConstruction:
    def test_open_from_edges(self):
        svc = CoreService.open(TRIANGLE)
        assert svc.cores() == {0: 2, 1: 2, 2: 2}
        assert svc.engine_name == DEFAULT_ENGINE

    def test_open_from_graph_adopts_it(self):
        graph = DynamicGraph(TRIANGLE)
        svc = CoreService.open(graph)
        assert svc.graph is graph

    def test_open_empty(self):
        svc = CoreService.open()
        assert svc.graph.n == 0 and svc.cores() == {}

    @pytest.mark.parametrize(
        "engine", ["order", "order-simplified", "trav-2", "naive"]
    )
    def test_open_any_registered_engine(self, engine):
        svc = CoreService.open(TRIANGLE, engine=engine)
        assert svc.engine_name.startswith(engine.split("-")[0])
        assert svc.core(0) == 2

    def test_open_rejects_unknown_engine_option(self):
        with pytest.raises(TypeError, match="adit"):
            CoreService.open(TRIANGLE, adit=True)

    def test_constructor_adopts_existing_engine(self):
        from repro.core.maintainer import OrderedCoreMaintainer

        engine = OrderedCoreMaintainer(DynamicGraph(TRIANGLE))
        svc = CoreService(engine)
        assert svc.engine is engine


class TestTransactions:
    def test_context_commit(self):
        svc = CoreService.open(TRIANGLE)
        with svc.transaction() as tx:
            tx.insert(0, 3).insert(1, 3)
        assert tx.state == "committed"
        assert tx.receipt.deltas == {3: 2}
        assert svc.core(3) == 2

    def test_receipt_carries_batch_result_and_counters(self):
        # A tail long enough that the commit is maintained: a rebuilt
        # commit recomputes no mcd, so it charges no mcd_recomputations.
        tail = [(v, v + 1) for v in range(2, 12)]
        svc = CoreService.open(TRIANGLE + tail, engine="order")
        with svc.transaction() as tx:
            tx.insert(0, 3).remove(1, 2)
        receipt = tx.receipt
        assert isinstance(receipt, CommitReceipt)
        assert (receipt.inserts, receipt.removes, receipt.ops) == (1, 1, 2)
        assert receipt.engine == "order"
        assert receipt.seconds == receipt.result.seconds
        assert "rebuilds" not in receipt.counters
        assert "mcd_recomputations" in receipt.counters

    def test_exception_rolls_back(self):
        svc = CoreService.open(TRIANGLE)
        with pytest.raises(RuntimeError, match="boom"):
            with svc.transaction() as tx:
                tx.insert(0, 3)
                raise RuntimeError("boom")
        assert tx.state == "rolled back"
        assert svc.graph.m == 3  # nothing reached the engine
        assert svc.last_receipt is None

    def test_explicit_commit_inside_block(self):
        svc = CoreService.open(TRIANGLE)
        with svc.transaction() as tx:
            tx.insert(0, 3)
            receipt = tx.commit()
        assert receipt is tx.receipt
        assert svc.core(3) == 1

    def test_closed_transaction_rejects_everything(self):
        svc = CoreService.open(TRIANGLE)
        tx = svc.transaction()
        tx.insert(0, 3)
        tx.rollback()
        for call in (
            lambda: tx.insert(4, 5),
            lambda: tx.remove(0, 1),
            tx.commit,
            tx.rollback,
            tx.__enter__,
        ):
            with pytest.raises(TransactionError, match="rolled back"):
                call()
        with pytest.raises(TransactionError, match="no receipt"):
            tx.receipt

    def test_bad_op_raises_at_record_time_and_tx_survives(self):
        svc = CoreService.open(TRIANGLE)
        with svc.transaction() as tx:
            with pytest.raises(SelfLoopError):
                tx.insert(5, 5)
            tx.insert(0, 3)
        assert svc.core(3) == 1

    def test_empty_transaction_commits_cleanly(self):
        svc = CoreService.open(TRIANGLE)
        with svc.transaction() as tx:
            pass
        assert tx.receipt.ops == 0
        assert tx.receipt.events == ()

    def test_bulk_helpers(self):
        svc = CoreService.open(TRIANGLE)
        with svc.transaction() as tx:
            tx.insert_many([(0, 3), (1, 3), (2, 3)])
        assert svc.core(3) == 3  # the triangle became a K4
        with svc.transaction() as tx:
            tx.remove_many([(0, 3), (1, 3), (2, 3)])
        assert svc.core(3) == 0

    def test_apply_prebuilt_batch(self):
        svc = CoreService.open(TRIANGLE)
        receipt = svc.apply(Batch.inserts([(0, 3), (1, 3)]))
        assert receipt.deltas == {3: 2}

    def test_invalid_op_aborts_the_whole_commit(self):
        from repro.errors import BatchError

        svc = CoreService.open(TRIANGLE + [(0, 3)])
        seen = []
        svc.subscribe(seen.append)
        # The removal run would demote the triangle before the insert
        # of the already-present (1, 2) could fail — validation must
        # reject the batch before the engine mutates anything.
        with pytest.raises(BatchError, match="already"):
            with svc.transaction() as tx:
                tx.remove(2, 0)
                tx.insert(1, 2)
        assert tx.state == "failed"
        assert svc.graph.m == 4 and svc.cores() == core_numbers(svc.graph)
        assert seen == [] and svc.last_receipt is None
        with pytest.raises(BatchError, match="not in the graph"):
            svc.remove(7, 8)
        assert svc.graph.m == 4

    def test_remove_then_reinsert_history_validates(self):
        svc = CoreService.open(TRIANGLE)
        batch = Batch().remove(0, 1).insert(0, 1).remove(0, 1)
        svc.apply(batch)
        assert svc.graph.m == 2

    def test_one_op_sugar(self):
        svc = CoreService.open(TRIANGLE)
        r1 = svc.insert(0, 3)
        r2 = svc.remove(0, 3)
        assert r1.inserts == 1 and r2.removes == 1
        assert r2.receipt_id == r1.receipt_id + 1
        assert svc.last_receipt is r2

    def test_promotion_demotion_tallies(self):
        svc = CoreService.open(TRIANGLE)
        # Triangle -> K4: vertex 3 climbs 0->3, the others 2->3.
        up = svc.apply(Batch.inserts([(0, 3), (1, 3), (2, 3)]))
        assert (up.promotions, up.demotions) == (6, 0)
        # Strip two of the new edges: 3 falls 3->1, the others 3->2.
        down = svc.apply(Batch.removes([(0, 3), (1, 3)]))
        assert (down.promotions, down.demotions) == (0, 5)


class TestQueries:
    def build(self):
        # Triangle core 2; 3 hangs off at core 1.
        return CoreService.open(TRIANGLE + [(2, 3)])

    def test_core_and_default(self):
        svc = self.build()
        assert svc.core(0) == 2 and svc.core(3) == 1
        with pytest.raises(KeyError):
            svc.core("ghost")
        assert svc.core("ghost", 0) == 0

    def test_cores_is_a_snapshot(self):
        svc = self.build()
        snapshot = svc.cores()
        svc.insert(0, 3)
        assert snapshot[3] == 1  # unchanged by the later commit

    def test_kcore_view_is_lazy_and_live(self):
        svc = self.build()
        view = svc.kcore(2)
        assert set(view) == {0, 1, 2} and len(view) == 3
        assert 0 in view and 3 not in view and "ghost" not in view
        svc.insert(0, 3)  # 3 joins the 2-core; same view object answers
        assert 3 in view and len(view) == 4
        pinned = view.vertices()
        svc.remove(0, 3)
        assert 3 in pinned and 3 not in view

    def test_kcore_subgraph(self):
        svc = self.build()
        sub = svc.kcore(2).subgraph()
        assert set(sub.vertices()) == {0, 1, 2} and sub.m == 3

    def test_degeneracy_top_spectrum(self):
        svc = self.build()
        assert svc.degeneracy() == 2
        assert svc.top(2) == [(0, 2), (1, 2)]
        assert svc.top(0) == []
        assert [c for _, c in svc.top(10)] == [2, 2, 2, 1]
        assert svc.spectrum() == {2: 3, 1: 1}

    @pytest.mark.parametrize("path", BATCH_PATHS)
    def test_poisoned_session_reads_answer_the_last_acked_state(self, path):
        # The batch's removal run lands (the triangle falls to core 1),
        # then the fault fires before its insertion run.  The engine's
        # map and graph moved, but the commit was never acked, so every
        # read answers the state before it.
        svc = self.build()
        svc.engine.apply_batch = getattr(svc.engine, path)
        assert svc.spectrum() == {1: 1, 2: 3}  # the index is built
        before = svc.cores()
        tops = {n: svc.top(n) for n in (1, 3, 10)}
        with FaultPlan().crash("engine.mid_batch", hits=2):
            with pytest.raises(InjectedFault):
                svc.apply(Batch().remove(0, 1).insert(5, 6))
        assert svc.poisoned
        assert not svc.graph.has_edge(0, 1)  # the removal run landed
        assert set(svc.engine.core.values()) == {1}
        assert svc.cores() == before
        assert {v: svc.core(v) for v in before} == before
        assert svc.core(5, None) is None
        assert svc.kcore(2).vertices() == {0, 1, 2}
        assert svc.spectrum() == {1: 1, 2: 3}
        assert svc.degeneracy() == 2
        assert {n: svc.top(n) for n in tops} == tops

    @pytest.mark.parametrize("path", BATCH_PATHS)
    def test_poisoned_session_kcore_has_no_subgraph(self, path):
        # The removal run drops (0, 1) from the graph; the index still
        # holds the acked 2-core {0, 1, 2}, which that graph no longer
        # induces as a 2-core, so the view refuses to build a subgraph.
        svc = self.build()
        svc.engine.apply_batch = getattr(svc.engine, path)
        with FaultPlan().crash("engine.mid_batch", hits=2):
            with pytest.raises(InjectedFault):
                svc.apply(Batch().remove(0, 1).insert(3, 4))
        assert svc.poisoned
        view = svc.kcore(2)
        assert view.vertices() == {0, 1, 2}
        assert 0 in view and 3 not in view and len(view) == 3
        with pytest.raises(ValueError, match="without a graph"):
            view.subgraph()


class TestEventStream:
    def test_events_delivered_with_receipt_ids(self):
        svc = CoreService.open(TRIANGLE)
        seen: list[CoreEvent] = []
        svc.subscribe(seen.append)
        receipt = svc.apply(Batch.inserts([(0, 3), (1, 3)]))
        assert seen == [CoreEvent(3, 0, 2, receipt.receipt_id)]
        assert seen[0].delta == 2 and seen[0].kind == "promotion"
        svc.remove(1, 3)
        assert seen[-1] == CoreEvent(3, 2, 1, receipt.receipt_id + 1)
        assert seen[-1].kind == "demotion"

    def test_events_are_vertex_key_ordered(self):
        svc = CoreService.open()
        seen = []
        svc.subscribe(seen.append)
        svc.apply(Batch.inserts([(9, 5), (5, 2), (2, 9)]))
        assert [e.vertex for e in seen] == [2, 5, 9]
        assert all(e.old_core == 0 and e.new_core == 2 for e in seen)

    def test_min_k_filter(self):
        svc = CoreService.open(TRIANGLE)
        everything, hot = [], []
        svc.subscribe(everything.append)
        svc.subscribe(hot.append, min_k=2)
        svc.apply(Batch.inserts([(3, 4)]))  # 3, 4 enter core 1
        svc.apply(Batch.inserts([(0, 3), (1, 3)]))  # 3 enters core 2
        assert {e.vertex for e in everything} == {3, 4}
        assert [(e.vertex, e.new_core) for e in hot] == [(3, 2)]
        svc.apply(Batch.removes([(0, 3)]))  # 3 falls out of the 2-core
        assert hot[-1].old_core == 2 and hot[-1].new_core == 1

    def test_close_stops_delivery(self):
        svc = CoreService.open(TRIANGLE)
        seen = []
        sub = svc.subscribe(seen.append)
        svc.insert(0, 3)
        sub.close()
        sub.close()  # idempotent
        svc.insert(1, 3)
        assert len(seen) == 1 and not sub.active
        assert svc.subscriber_count == 0

    def test_subscription_context_manager(self):
        svc = CoreService.open(TRIANGLE)
        seen = []
        with svc.subscribe(seen.append):
            svc.insert(0, 3)
        svc.insert(1, 3)
        assert len(seen) == 1

    def test_callback_may_unsubscribe_mid_dispatch(self):
        svc = CoreService.open()
        seen = []

        def once(event):
            seen.append(event)
            sub.close()

        sub = svc.subscribe(once)
        svc.apply(Batch.inserts([(0, 1), (1, 2), (2, 0)]))
        assert len(seen) == 1  # closed itself after the first event

    def test_callback_reads_post_commit_state(self):
        svc = CoreService.open(TRIANGLE)
        observed = []
        svc.subscribe(lambda e: observed.append(svc.core(e.vertex)))
        svc.apply(Batch.inserts([(0, 3), (1, 3)]))
        assert observed == [2]

    def test_callback_exception_propagates_after_commit(self):
        svc = CoreService.open(TRIANGLE)

        def explode(event):
            raise ValueError("subscriber bug")

        svc.subscribe(explode)
        with pytest.raises(ValueError, match="subscriber bug"):
            svc.insert(0, 3)
        assert svc.graph.m == 4  # the commit itself landed

    def test_subscriber_failure_still_reports_committed(self):
        svc = CoreService.open(TRIANGLE)

        def explode(event):
            raise ValueError("subscriber bug")

        svc.subscribe(explode)
        tx = svc.transaction()
        tx.insert(0, 3)
        with pytest.raises(ValueError, match="subscriber bug"):
            tx.commit()
        # The engine accepted the batch: the transaction must say so
        # (a "failed" state here would invite a double-applying retry).
        assert tx.state == "committed"
        assert tx.receipt is svc.last_receipt
        assert svc.graph.m == 4

    def test_receipt_events_available_without_subscribers(self):
        svc = CoreService.open(TRIANGLE)
        receipt = svc.apply(Batch.inserts([(0, 3), (1, 3)]))
        assert receipt.events == (CoreEvent(3, 0, 2, receipt.receipt_id),)
        # Lazily built events are frozen at commit time: later commits
        # must not rewrite an old receipt's story.
        svc.remove(1, 3)
        assert receipt.events[0].new_core == 2


class TestCheckpointing:
    def test_save_load_roundtrip(self, tmp_path):
        svc = CoreService.open(TRIANGLE + [(2, 3), (3, 4)])
        svc.insert(0, 3)
        path = tmp_path / "session.json"
        svc.save(path)
        restored = CoreService.load(path)
        assert restored.cores() == svc.cores()
        assert restored.engine_name == DEFAULT_ENGINE

    def test_restored_service_resumes_with_live_subscriptions(self, tmp_path):
        svc = CoreService.open(TRIANGLE)
        path = tmp_path / "session.json"
        svc.save(path)
        restored = CoreService.load(path)
        seen = []
        restored.subscribe(seen.append)
        restored.apply(Batch.inserts([(0, 3), (1, 3)]))
        assert [(e.vertex, e.new_core) for e in seen] == [(3, 2)]
        assert restored.cores() == core_numbers(restored.graph)

    def test_save_load_round_trips_every_engine(self, tmp_path):
        for engine in ("naive", "trav-2"):
            svc = CoreService.open(TRIANGLE + [(2, 3)], engine=engine)
            svc.insert(0, 3)
            path = tmp_path / f"{engine}.json"
            svc.save(path)
            restored = CoreService.load(path)
            assert restored.engine_name == engine
            assert restored.cores() == svc.cores() == dict.fromkeys(range(4), 2)
            restored.insert(1, 3)
            assert restored.cores() == core_numbers(restored.graph)


class TestMonitorIntegration:
    def test_monitor_exposes_its_service(self):
        monitor = SlidingWindowCoreMonitor(window=10.0)
        monitor.observe_many(TRIANGLE, t=0.0)
        assert monitor.service.core(0) == 2
        assert monitor.service.last_receipt.inserts == 3

    def test_monitor_adopts_an_open_service(self):
        svc = CoreService.open(engine="naive")
        monitor = SlidingWindowCoreMonitor(window=5.0, service=svc)
        monitor.observe_many(TRIANGLE, t=0.0)
        assert monitor.service.engine is svc.engine
        assert svc.degeneracy() == 2

    def test_monitor_rejects_a_populated_service(self):
        svc = CoreService.open(TRIANGLE)
        with pytest.raises(WorkloadError, match="window starts empty"):
            SlidingWindowCoreMonitor(window=5.0, service=svc)

    def test_monitor_rejects_service_plus_engine_config(self):
        # An engine name alongside an adopted service would be silently
        # ignored; it must raise instead.
        with pytest.raises(WorkloadError, match="not both"):
            SlidingWindowCoreMonitor(
                window=5.0, service=CoreService.open(), engine="naive"
            )
        # The monitor takes no other engine configuration at all.
        for stray in ("seed", "audit"):
            with pytest.raises(TypeError, match=stray):
                SlidingWindowCoreMonitor(window=5.0, **{stray: 7})

    def test_monitor_stats_are_subscriber_driven(self):
        monitor = SlidingWindowCoreMonitor(window=2.0)
        monitor.observe_many(TRIANGLE, t=0.0)
        # 0, 1, 2 each climb 0 -> 2: six core levels gained in total.
        assert monitor.stats.promotions == 6
        assert monitor.stats.demotions == 0
        monitor.advance_to(10.0)
        assert monitor.stats.demotions == 6
        # An outside subscriber on the same service sees the same stream.
        outside = []
        monitor.service.subscribe(outside.append)
        monitor.observe_many(TRIANGLE, t=11.0)
        assert {e.vertex for e in outside} == {0, 1, 2}


class TestBenchRunnerIntegration:
    def test_run_batches_accepts_services_and_engines(self):
        from repro.bench.runner import run_batches
        from repro.engine import make_engine

        batches = [Batch.inserts(TRIANGLE), Batch.removes([(0, 1)])]
        engine = make_engine("order", DynamicGraph())
        service = CoreService.open(engine="order")
        raw = run_batches(engine, batches)
        facade = run_batches(service, batches)
        assert [r.ops for r in raw] == [r.ops for r in facade] == [3, 1]
        assert engine.core_numbers() == service.cores()
        assert service.last_receipt.receipt_id == 2
