"""End-to-end tests of the async serving front (server + client).

Everything runs over real TCP on the loopback with the real protocol —
no mocked transports — exercising the robustness machinery the module
exists for: supervised failover, backpressure, deadlines with
exactly-once retry, degraded-mode reads, replica staleness, and the
behavioural network fault points (``server.*`` / ``replica.*``).

The suite has no pytest-asyncio dependency: each test is a sync
function running one scenario coroutine under ``asyncio.run``.
"""

import asyncio
import json
import sys

import pytest

from repro.core.decomposition import core_numbers
from repro.graphs.undirected import DynamicGraph
from repro.service import (
    CoreClient,
    CoreServer,
    CoreService,
    DeadlineExceededError,
    RemoteError,
    RetryAfterError,
    ServerLimits,
    SessionDegradedError,
)
from repro.service.wal import batch_from_ops, frame, scan
from repro.testing.faults import FaultPlan

from helpers import MALFORMED_COMMITS

TRIANGLE = [("insert", 0, 1), ("insert", 1, 2), ("insert", 2, 0)]


def run(coro):
    return asyncio.run(asyncio.wait_for(coro, 60))


async def wait_for_state(client, state, *, timeout=10.0):
    """Poll ``status`` until the session reports ``state``."""
    async def _poll():
        while True:
            st = await client.status()
            if st["state"] == state:
                return st
            await asyncio.sleep(0.01)
    return await asyncio.wait_for(_poll(), timeout)


def oracle_cores(edges):
    graph = DynamicGraph()
    for u, v in edges:
        graph.add_edge(u, v)
    return core_numbers(graph)


class TestRoundTrip:
    def test_commit_query_ping(self, tmp_path):
        async def scenario():
            async with CoreServer(log_dir=tmp_path) as server:
                host, port = await server.start()
                async with await CoreClient.connect(
                    host, port, session="t"
                ) as client:
                    assert await client.ping()
                    summary = await client.commit(TRIANGLE)
                    assert summary["receipt_id"] == 1
                    assert summary["ops"] == 3
                    assert not summary["replayed"]
                    assert await client.core(0) == 2
                    assert await client.cores() == {0: 2, 1: 2, 2: 2}
                    assert await client.degeneracy() == 2
                    assert await client.kcore(2) == [0, 1, 2]
                    assert await client.top(2) == [(0, 2), (1, 2)]
                    assert await client.spectrum() == {2: 3}
        run(scenario())

    def test_query_reports_source_and_receipt(self, tmp_path):
        async def scenario():
            async with CoreServer(log_dir=tmp_path) as server:
                host, port = await server.start()
                client = await CoreClient.connect(host, port, session="t")
                await client.commit(TRIANGLE)
                reply = await client.query("cores")
                assert reply["source"] == "primary"
                assert reply["state"] == "healthy"
                assert reply["receipt"] == 1
                await client.close()
        run(scenario())

    def test_sessions_are_isolated(self, tmp_path):
        async def scenario():
            async with CoreServer(log_dir=tmp_path) as server:
                host, port = await server.start()
                a = await CoreClient.connect(host, port, session="a")
                b = await CoreClient.connect(host, port, session="b")
                await a.commit(TRIANGLE)
                await b.commit([("insert", 10, 11)])
                assert await a.cores() == {0: 2, 1: 2, 2: 2}
                assert await b.cores() == {10: 1, 11: 1}
                assert (await a.server_stats())["sessions"] == 2
                await a.close()
                await b.close()
        run(scenario())

    def test_invalid_session_name_rejected(self):
        async def scenario():
            async with CoreServer() as server:
                host, port = await server.start()
                client = await CoreClient.connect(
                    host, port, session="../escape"
                )
                with pytest.raises(RemoteError, match="invalid session"):
                    await client.status()
                await client.close()
        run(scenario())

    def test_unknown_method_and_op(self):
        async def scenario():
            async with CoreServer() as server:
                host, port = await server.start()
                client = await CoreClient.connect(host, port, session="t")
                with pytest.raises(RemoteError, match="unknown method"):
                    await client._request("frobnicate", {})
                with pytest.raises(RemoteError, match="unknown query op"):
                    await client.query("frobnicate")
                await client.close()
        run(scenario())

    def test_garbage_bytes_drop_the_peer_not_the_server(self):
        async def scenario():
            async with CoreServer() as server:
                host, port = await server.start()
                reader, writer = await asyncio.open_connection(host, port)
                writer.write(b"GET / HTTP/1.1\r\n\r\n" + b"\n")
                await writer.drain()
                assert await reader.read(100) == b""  # dropped
                writer.close()
                # The server still serves protocol-speaking clients.
                client = await CoreClient.connect(host, port, session="t")
                assert await client.ping()
                await client.close()
        run(scenario())


class TestIdempotency:
    def test_token_replay_returns_same_receipt(self, tmp_path):
        async def scenario():
            async with CoreServer(log_dir=tmp_path) as server:
                host, port = await server.start()
                client = await CoreClient.connect(host, port, session="t")
                first = await client.commit(TRIANGLE, token="tok")
                again = await client.commit(TRIANGLE, token="tok")
                assert not first["replayed"]
                assert again["replayed"]
                assert again["receipt_id"] == first["receipt_id"]
                # The batch really applied once: one record in the log.
                assert (await client.status())["commits"] == 1
                await client.close()
        run(scenario())

    def test_tokens_survive_server_restart(self, tmp_path):
        async def scenario():
            async with CoreServer(log_dir=tmp_path) as server:
                host, port = await server.start()
                client = await CoreClient.connect(host, port, session="t")
                first = await client.commit(TRIANGLE, token="tok")
                await client.close()
            # A brand-new server over the same log_dir resumes the
            # tenant — including its durable token record.
            async with CoreServer(log_dir=tmp_path) as server:
                host, port = await server.start()
                client = await CoreClient.connect(host, port, session="t")
                again = await client.commit(TRIANGLE, token="tok")
                assert again["replayed"]
                assert again["receipt_id"] == first["receipt_id"]
                assert await client.cores() == {0: 2, 1: 2, 2: 2}
                await client.close()
        run(scenario())


class TestBackpressure:
    def test_full_queue_sheds_with_backoff_hint(self, tmp_path):
        async def scenario():
            limits = ServerLimits(max_pending=2, max_inflight=64)
            async with CoreServer(log_dir=tmp_path, limits=limits) as server:
                host, port = await server.start()
                client = await CoreClient.connect(host, port, session="t")
                await client.commit(TRIANGLE)
                session = server.sessions["t"]
                session.pause()  # writer held: queue fills, nothing drains
                edges = [("insert", 10 + i, 20 + i) for i in range(8)]
                waiters = [
                    asyncio.create_task(
                        client.commit([e], retry=False, deadline=30)
                    )
                    for e in edges
                ]
                await asyncio.sleep(0.3)  # shed replies come back at once
                shed_edges, shed_errors = [], []
                for edge, task in zip(edges, waiters):
                    if task.done():
                        exc = task.exception()
                        assert isinstance(exc, RetryAfterError)
                        shed_errors.append(exc)
                        shed_edges.append(edge)
                assert len(shed_errors) >= 4, (
                    "a held writer with a 2-deep queue must shed"
                )
                assert all(e.retryable for e in shed_errors)
                assert all(
                    e.retry_after and e.retry_after > 0 for e in shed_errors
                )
                session.resume()
                await asyncio.gather(*waiters, return_exceptions=True)
                # Shed commits retried (default retry loop) all land.
                for e in shed_edges:
                    summary = await client.commit([e], deadline=30)
                    assert summary["receipt_id"] > 0
                assert (await client.status())["shed"] >= len(shed_errors)
                await client.close()
        run(scenario())

    def test_global_inflight_cap(self, tmp_path):
        async def scenario():
            limits = ServerLimits(max_pending=64, max_inflight=2)
            async with CoreServer(log_dir=tmp_path, limits=limits) as server:
                host, port = await server.start()
                a = await CoreClient.connect(host, port, session="a")
                b = await CoreClient.connect(host, port, session="b")
                await a.commit(TRIANGLE)
                await b.commit([("insert", 90, 91)])
                for name in ("a", "b"):
                    server.sessions[name].pause()
                waiters = [
                    asyncio.create_task(
                        c.commit(
                            [("insert", 50 + i, 60 + i)],
                            retry=False, deadline=30,
                        )
                    )
                    for i, c in enumerate([a, b, a, b, a, b])
                ]
                await asyncio.sleep(0.3)
                shed = [
                    t.exception() for t in waiters if t.done()
                ]
                assert len(shed) >= 4  # cap of 2 across both sessions
                assert all(isinstance(e, RetryAfterError) for e in shed)
                assert any("max_inflight" in str(e) for e in shed)
                for name in ("a", "b"):
                    server.sessions[name].resume()
                await asyncio.gather(*waiters, return_exceptions=True)
                await a.close()
                await b.close()
        run(scenario())


class TestDeadlines:
    def test_deadline_fires_while_queued(self, tmp_path):
        async def scenario():
            async with CoreServer(log_dir=tmp_path) as server:
                host, port = await server.start()
                client = await CoreClient.connect(host, port, session="t")
                await client.commit(TRIANGLE)
                server.sessions["t"].pause()
                with pytest.raises(DeadlineExceededError) as info:
                    await client.commit(
                        [("insert", 5, 6)], deadline=0.05, retry=False
                    )
                assert info.value.retryable
                server.sessions["t"].resume()
                await client.close()
        run(scenario())

    def test_expired_commit_still_lands_and_retry_is_exactly_once(
        self, tmp_path
    ):
        """The cancellation-safety contract: a deadline abandons the
        waiter, the single writer still finishes the commit, and the
        token retry resolves to the already-landed receipt."""
        async def scenario():
            async with CoreServer(log_dir=tmp_path) as server:
                host, port = await server.start()
                client = await CoreClient.connect(host, port, session="t")
                await client.commit(TRIANGLE)
                session = server.sessions["t"]
                session.pause()
                with pytest.raises(DeadlineExceededError):
                    await client.commit(
                        [("insert", 5, 6)], token="tok",
                        deadline=0.05, retry=False,
                    )
                # Retry immediately — the original is still queued, so
                # this exercises the attach-to-in-flight path too.
                session.resume()
                summary = await client.commit(
                    [("insert", 5, 6)], token="tok", deadline=10,
                )
                assert summary["replayed"], (
                    "the deadline-abandoned commit must have applied "
                    "exactly once"
                )
                assert (await client.status())["commits"] == 2
                assert await client.core(5) == 1
                await client.close()
        run(scenario())


class TestFailover:
    def test_crash_recover_healthy_with_report(self, tmp_path):
        async def scenario():
            async with CoreServer(log_dir=tmp_path) as server:
                host, port = await server.start()
                client = await CoreClient.connect(host, port, session="t")
                await client.commit(TRIANGLE)
                with FaultPlan().crash("engine.mid_batch"):
                    summary = await client.commit(
                        [("insert", 0, 3)], deadline=20
                    )
                # The WAL had the record before the engine died, so the
                # retry is answered from the recovered token table.
                assert summary["replayed"]
                st = await wait_for_state(client, "healthy")
                assert st["crashes"] == 1
                assert st["recoveries"] == 1
                assert st["last_recovery"]["replayed"] >= 1
                assert await client.core(3) == 1
                await client.close()
        run(scenario())

    def test_degraded_reads_during_recovery_window(self, tmp_path):
        async def scenario():
            limits = ServerLimits(recovery_delay=0.4)
            async with CoreServer(log_dir=tmp_path, limits=limits) as server:
                host, port = await server.start()
                client = await CoreClient.connect(host, port, session="t")
                await client.commit(TRIANGLE)
                with FaultPlan().crash("engine.mid_batch"):
                    with pytest.raises(RetryAfterError):
                        await client.commit(
                            [("insert", 0, 3)], retry=False
                        )
                st = await wait_for_state(client, "degraded")
                # Reads keep answering from last-good state while the
                # supervisor lingers before re-recovering.
                reply = await client.query("cores")
                assert reply["source"] == "last_good"
                assert dict(
                    (v, c) for v, c in reply["result"]
                ) == {0: 2, 1: 2, 2: 2}
                assert (await client.query("top", n=1))["result"] == [[0, 2]]
                assert (await client.query("kcore", k=2))["result"] == [
                    0, 1, 2,
                ]
                assert (await client.query("degeneracy"))["result"] == 2
                st = await wait_for_state(client, "healthy")
                assert (await client.query("cores"))["source"] == "primary"
                assert (await client.status())["degraded_reads"] >= 4
                await client.close()
        run(scenario())

    def test_malformed_log_record_degrades_the_session(self, tmp_path):
        """A CRC-valid commit record with no ``ops`` fails recovery as
        log corruption: the supervisor parks the session degraded with
        the reason, and the server still closes."""
        async def scenario():
            limits = ServerLimits(recovery_delay=0.2)
            async with CoreServer(log_dir=tmp_path, limits=limits) as server:
                host, port = await server.start()
                client = await CoreClient.connect(host, port, session="t")
                await client.commit(TRIANGLE)
                with open(tmp_path / "t.wal", "ab") as fh:
                    fh.write(frame(json.dumps(
                        MALFORMED_COMMITS["no-ops"]
                    ).encode()))
                with FaultPlan().crash("engine.mid_batch"):
                    with pytest.raises(RetryAfterError):
                        await client.commit(
                            [("insert", 0, 3)], retry=False
                        )
                while (st := await client.status())["recovery_error"] is None:
                    await asyncio.sleep(0.01)
                assert st["state"] == "degraded"
                assert "field 'ops'" in st["recovery_error"]
                await client.close()
        run(scenario())

    def test_unlogged_session_degrades_permanently(self):
        async def scenario():
            async with CoreServer() as server:  # no log_dir
                host, port = await server.start()
                client = await CoreClient.connect(host, port, session="t")
                await client.commit(TRIANGLE)
                with FaultPlan().crash("engine.mid_batch"):
                    with pytest.raises(RetryAfterError):
                        await client.commit(
                            [("insert", 0, 3)], retry=False
                        )
                st = await wait_for_state(client, "degraded")
                assert not st["logged"]
                with pytest.raises(SessionDegradedError) as info:
                    await client.commit([("insert", 7, 8)], retry=False)
                assert not info.value.retryable
                # Reads still answer (read-only survival mode).
                assert (await client.query("cores"))["source"] == "last_good"
                await client.close()
        run(scenario())

    def test_last_good_tracks_committed_state_exactly(self, tmp_path):
        """The incremental last-good map equals a fresh decomposition of
        everything committed before the crash."""
        async def scenario():
            async with CoreServer() as server:
                host, port = await server.start()
                client = await CoreClient.connect(host, port, session="t")
                edges = [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2),
                         (5, 6)]
                for u, v in edges:
                    await client.commit([("insert", u, v)])
                await client.commit([("remove", 5, 6)])
                with FaultPlan().crash("engine.mid_batch"):
                    with pytest.raises(RetryAfterError):
                        await client.commit(
                            [("insert", 0, 9)], retry=False
                        )
                await wait_for_state(client, "degraded")
                got = dict(
                    (v, c)
                    for v, c in (await client.query("cores"))["result"]
                )
                want = oracle_cores(
                    [(u, v) for u, v in edges if (u, v) != (5, 6)]
                )
                want.update({5: 0, 6: 0})  # removed edge leaves 0-cores
                assert got == want
                await client.close()
        run(scenario())

    def test_degraded_reads_skip_a_half_applied_commit(self):
        """The crash comes after the batch's removal run landed in the
        engine: degraded reads still answer the state before that
        commit, never the half-applied one."""
        async def scenario():
            async with CoreServer() as server:  # no log: stays degraded
                host, port = await server.start()
                client = await CoreClient.connect(host, port, session="t")
                await client.commit(TRIANGLE + [("insert", 2, 3)])
                assert await client.spectrum() == {1: 1, 2: 3}  # built
                with FaultPlan().crash("engine.mid_batch", hits=2):
                    with pytest.raises(RetryAfterError):
                        await client.commit(
                            [("remove", 0, 1), ("insert", 5, 6)],
                            retry=False,
                        )
                await wait_for_state(client, "degraded")
                engine = server.sessions["t"].service.engine
                assert not engine.graph.has_edge(0, 1)  # the run landed
                want = {
                    "cores": [[0, 2], [1, 2], [2, 2], [3, 1]],
                    "top": [[0, 2], [1, 2]],
                    "spectrum": [[1, 1], [2, 3]],
                    "kcore": [0, 1, 2],
                }
                params = {"top": {"n": 2}, "kcore": {"k": 2}}
                for op, result in want.items():
                    reply = await client.query(op, **params.get(op, {}))
                    assert reply["source"] == "last_good", op
                    assert reply["result"] == result, op
                await client.close()
        run(scenario())


class TestSubscriptions:
    def test_events_stream_to_client(self, tmp_path):
        async def scenario():
            async with CoreServer(log_dir=tmp_path) as server:
                host, port = await server.start()
                client = await CoreClient.connect(host, port, session="t")
                stream = await client.subscribe()
                await client.commit(TRIANGLE)
                batch = await asyncio.wait_for(stream.__anext__(), 10)
                assert batch.kind == "events"
                assert sorted(batch.events) == [
                    (0, 0, 2, 1), (1, 0, 2, 1), (2, 0, 2, 1),
                ]
                assert batch.dropped == 0
                await stream.close()
                await client.close()
        run(scenario())

    def test_min_k_filter(self, tmp_path):
        async def scenario():
            async with CoreServer(log_dir=tmp_path) as server:
                host, port = await server.start()
                client = await CoreClient.connect(host, port, session="t")
                stream = await client.subscribe(min_k=2)
                await client.commit([("insert", 8, 9)])  # stays below 2
                await client.commit(TRIANGLE)            # crosses 2
                batch = await asyncio.wait_for(stream.__anext__(), 10)
                assert {e[0] for e in batch.events} == {0, 1, 2}
                assert all(e[3] == 2 for e in batch.events)
                await stream.close()
                await client.close()
        run(scenario())

    def test_reset_frame_after_failover(self, tmp_path):
        async def scenario():
            async with CoreServer(log_dir=tmp_path) as server:
                host, port = await server.start()
                client = await CoreClient.connect(host, port, session="t")
                stream = await client.subscribe()
                await client.commit(TRIANGLE)
                first = await asyncio.wait_for(stream.__anext__(), 10)
                assert first.kind == "events"
                with FaultPlan().crash("engine.mid_batch"):
                    await client.commit([("insert", 0, 3)], deadline=20)
                await wait_for_state(client, "healthy")
                kinds = [first.kind]
                # After failover the stream must carry a reset marker;
                # events may follow for post-recovery commits.
                item = await asyncio.wait_for(stream.__anext__(), 10)
                kinds.append(item.kind)
                assert item.kind == "reset"
                assert item.receipt >= 1
                await client.commit([("insert", 3, 4)])
                nxt = await asyncio.wait_for(stream.__anext__(), 10)
                assert nxt.kind == "events"
                assert any(e[0] == 4 for e in nxt.events)
                await stream.close()
                await client.close()
        run(scenario())

    def test_unsubscribe_stops_delivery(self, tmp_path):
        async def scenario():
            async with CoreServer(log_dir=tmp_path) as server:
                host, port = await server.start()
                client = await CoreClient.connect(host, port, session="t")
                stream = await client.subscribe()
                await stream.close()
                assert server.sessions["t"].subscribers == {}
                await client.commit(TRIANGLE)
                with pytest.raises(StopAsyncIteration):
                    await asyncio.wait_for(stream.__anext__(), 5)
                await client.close()
        run(scenario())

    def test_slow_subscriber_drops_oldest_never_blocks_commits(
        self, tmp_path
    ):
        async def scenario():
            limits = ServerLimits(subscriber_buffer=2)
            async with CoreServer(log_dir=tmp_path, limits=limits) as server:
                host, port = await server.start()
                client = await CoreClient.connect(host, port, session="t")
                stream = await client.subscribe(buffer=2)
                # Stall the pump so the bounded buffer must shed.
                sub = next(iter(server.sessions["t"].subscribers.values()))
                sub.task.cancel()
                for i in range(12):
                    await client.commit([("insert", 100 + i, 200 + i)])
                assert sub.sub.dropped_events >= 10
                assert (await client.status())["commits"] == 12
                await stream.close()
                await client.close()
        run(scenario())


class TestMalformedParams:
    """Malformed request envelopes and parameters answer ``BadRequest``
    at the server boundary and never reach (or crash) the tenant."""

    @pytest.mark.parametrize("session, method, params", [
        ("t", "subscribe", {"min_k": "2"}),
        ("t", "subscribe", {"buffer": "x"}),
        ("t", "subscribe", {"buffer": -5}),
        ("t", "commit", {"ops": [["insert", 3, 4]], "deadline_ms": "soon"}),
        ("t", "commit", [1]),
        ("t", "query", "core"),
        (5, "status", {}),
        ("a b", "status", {}),
        ("t", "commit", {"ops": [["insert", 3, 4]], "token": [1]}),
        ("t", "query", {"op": "core", "vertex": [1, 2]}),
        ("t", "query", {"op": "core", "vertex": [1], "replica": True}),
        ("t", "unsubscribe", {"sub": [1]}),
    ], ids=["min_k-str", "buffer-str", "buffer-negative", "deadline-str",
            "params-list", "params-str", "session-int", "session-invalid",
            "token-list", "vertex-list", "replica-vertex-list", "sub-list"])
    def test_bad_param_is_a_bad_request(
        self, tmp_path, session, method, params
    ):
        async def scenario():
            async with CoreServer(log_dir=tmp_path) as server:
                host, port = await server.start()
                client = await CoreClient.connect(host, port, session="t")
                await client.commit(TRIANGLE)
                # A live subscription, so a bad unsubscribe id meets a
                # non-empty table.
                await client.subscribe()
                client.session = session
                with pytest.raises(RemoteError) as info:
                    # Bounded: a request the server drops unanswered
                    # must fail here, not hang the suite.
                    await asyncio.wait_for(client._request(method, params), 10)
                assert info.value.err_type == "BadRequest"
                client.session = "t"
                # The tenant is untouched: the next commit lands and
                # nothing crashed.
                summary = await client.commit([("insert", 0, 3)])
                assert summary["ops"] == 1
                status = await client.status()
                assert status["crashes"] == 0
                assert status["state"] == "healthy"
                await client.close()
        run(scenario())

    def test_subscription_rejects_a_non_integer_min_k(self):
        from repro.errors import ServiceError

        svc = CoreService.open()
        with pytest.raises(ServiceError, match="min_k"):
            svc.subscribe(max_pending=4, min_k="2")
        svc.close()


class TestReplica:
    def test_replica_reads_match_primary(self, tmp_path):
        async def scenario():
            async with CoreServer(log_dir=tmp_path) as server:
                host, port = await server.start()
                client = await CoreClient.connect(host, port, session="t")
                await client.commit(TRIANGLE)
                await client.commit([("insert", 2, 3), ("insert", 3, 0)])
                reply = await client.query("cores", replica=True)
                assert reply["source"] == "replica"
                assert reply["receipt"] == 2
                assert await client.cores(replica=True) == (
                    await client.cores()
                )
                assert await client.kcore(2, replica=True) == [0, 1, 2, 3]
                assert await client.top(1, replica=True) == [(0, 2)]
                await client.close()
        run(scenario())

    def test_concurrent_replica_reads_answer_a_committed_prefix(
        self, tmp_path
    ):
        # Replica reads refresh the replica and answer from its index in
        # worker threads.  Many at once on one session, beside commits,
        # must each answer exactly the state of the receipt they report.
        edges = [(i, j) for i in range(14) for j in range(i + 1, 14)
                 if (3 * i + j) % 4]
        batches = [[("insert", u, v) for u, v in edges[k:k + 5]]
                   for k in range(0, len(edges), 5)]
        oracle = CoreService.open()
        expected = {0: []}
        for receipt, ops in enumerate(batches, start=1):
            oracle.apply(batch_from_ops(ops))
            expected[receipt] = [list(pair) for pair in oracle.top(5)]
        replies = []

        async def reads(client):
            for _ in range(30):
                replies.append(await client.query("top", n=5, replica=True))

        async def scenario():
            async with CoreServer(log_dir=tmp_path) as server:
                host, port = await server.start()
                clients = [
                    await CoreClient.connect(host, port, session="t")
                    for _ in range(5)
                ]

                async def commits():
                    for ops in batches:
                        await clients[0].commit(ops)

                await asyncio.gather(
                    commits(), *(reads(c) for c in clients[1:])
                )
                for client in clients:
                    await client.close()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            run(asyncio.wait_for(scenario(), timeout=120))
        finally:
            sys.setswitchinterval(interval)
        assert len(replies) == 4 * 30
        for reply in replies:
            assert reply["result"] == expected[reply["receipt"]]

    def test_replica_tails_incrementally(self, tmp_path):
        async def scenario():
            async with CoreServer(log_dir=tmp_path) as server:
                host, port = await server.start()
                client = await CoreClient.connect(host, port, session="t")
                await client.commit(TRIANGLE)
                await client.cores(replica=True)  # builds the replica
                replica = server.sessions["t"].replica
                builds = replica.rebuilds
                for i in range(5):
                    await client.commit([("insert", 10 + i, 11 + i)])
                    await client.cores(replica=True)
                assert replica.receipt == 6
                assert replica.rebuilds == builds  # tailed, not rebuilt
                assert replica.refreshes >= 5
                await client.close()
        run(scenario())

    def test_replica_requires_a_logged_session(self):
        async def scenario():
            async with CoreServer() as server:
                host, port = await server.start()
                client = await CoreClient.connect(host, port, session="t")
                await client.commit(TRIANGLE)
                with pytest.raises(RemoteError, match="no commit log"):
                    await client.cores(replica=True)
                await client.close()
        run(scenario())

    def test_stale_read_fault_serves_old_state(self, tmp_path):
        async def scenario():
            async with CoreServer(log_dir=tmp_path) as server:
                host, port = await server.start()
                client = await CoreClient.connect(host, port, session="t")
                await client.commit(TRIANGLE)
                await client.cores(replica=True)
                await client.commit([("insert", 0, 3)])
                with FaultPlan().crash("replica.stale_read"):
                    reply = await client.query("cores", replica=True)
                # Knowingly stale: the new vertex is missing.
                assert reply["receipt"] == 1
                assert 3 not in {v for v, _ in reply["result"]}
                replica = server.sessions["t"].replica
                assert replica.stale_serves == 1
                # Next refresh catches up.
                assert await client.core(3, replica=True) == 1
                await client.close()
        run(scenario())


#: One read of each query op, as ``(op, params)``.
ALL_READS = [
    ("core", {"vertex": 3}),
    ("core", {"vertex": 7}),
    ("cores", {}),
    ("top", {"n": 3}),
    ("spectrum", {}),
    ("degeneracy", {}),
    ("kcore", {"k": 2}),
]


async def degrade_for_reads(client):
    """Crash the session before its next commit reaches the log.

    Run under ``ServerLimits(recovery_delay=...)`` so the session stays
    degraded, answering reads from its last-good core map, while the
    test reads.  The crashed commit is not logged, so a replica still
    agrees with the last-good state.
    """
    with FaultPlan().crash("wal.before_append"):
        with pytest.raises(RetryAfterError):
            await client.commit([("insert", 0, 9)], retry=False)
    await wait_for_state(client, "degraded")


class TestReadSources:
    """Primary, replica and last-good reads share one dispatcher."""

    def test_every_source_gives_the_same_answer(self, tmp_path):
        async def scenario():
            limits = ServerLimits(recovery_delay=30)
            async with CoreServer(log_dir=tmp_path, limits=limits) as server:
                host, port = await server.start()
                client = await CoreClient.connect(host, port, session="t")
                await client.commit(TRIANGLE)
                await client.commit([("insert", 2, 3), ("insert", 3, 0),
                                     ("insert", 4, 5), ("insert", 5, 0)])
                await client.commit([("remove", 4, 5), ("insert", 4, 0)])
                # Vertices born at core 0: no delta mentions 7 or 8, yet
                # both stay in the graph.
                await client.commit([("insert", 7, 8), ("remove", 7, 8)])
                answers = {"primary": [], "replica": [], "last_good": []}
                for op, params in ALL_READS:
                    for source in ("primary", "replica"):
                        reply = await client.query(
                            op, replica=source == "replica", **params
                        )
                        assert reply["source"] == source
                        answers[source].append(reply["result"])
                await degrade_for_reads(client)
                for op, params in ALL_READS:
                    reply = await client.query(op, **params)
                    assert reply["source"] == "last_good"
                    answers["last_good"].append(reply["result"])
                assert answers["replica"] == answers["primary"]
                assert answers["last_good"] == answers["primary"]
                await client.close()
        run(scenario())

    @pytest.mark.parametrize("source", ["primary", "replica", "last_good"])
    @pytest.mark.parametrize("op, params", [
        ("nope", {}),
        ("core", {}),
        ("kcore", {}),
        ("kcore", {"k": "x"}),
        ("top", {"n": "x"}),
    ], ids=["unknown-op", "core-no-vertex", "kcore-no-k", "kcore-bad-k",
            "top-bad-n"])
    def test_malformed_read_is_a_bad_request(self, tmp_path, source, op,
                                             params):
        async def scenario():
            limits = ServerLimits(recovery_delay=30)
            async with CoreServer(log_dir=tmp_path, limits=limits) as server:
                host, port = await server.start()
                client = await CoreClient.connect(host, port, session="t")
                await client.commit(TRIANGLE)
                if source == "last_good":
                    await degrade_for_reads(client)
                replica = source == "replica"
                with pytest.raises(RemoteError) as info:
                    await client.query(op, replica=replica, **params)
                assert info.value.err_type == "BadRequest"
                # The connection survives and still answers a valid read.
                reply = await client.query("kcore", k=2, replica=replica)
                assert reply["source"] == source
                assert reply["result"] == [0, 1, 2]
                await client.close()
        run(scenario())


class TestNetworkFaults:
    """End-to-end matrix for the behavioural server.* fault points.

    Each scenario arms one point, drives a commit through the resulting
    network misbehaviour, and asserts the invariant the ISSUE demands:
    the client-visible retry resolves exactly once, the engine stays
    sound, and every acked receipt survives offline recovery.
    """

    def _finish(self, tmp_path, acked):
        # Offline recovery agrees with everything the clients saw acked,
        # and the recovered engine's invariants hold.
        from repro.analysis.validation import validate_maintainer

        log = tmp_path / "t.wal"
        svc = CoreService.recover(log)
        assert validate_maintainer(svc.engine).ok
        logged = {rid for rid, _ in scan(log).records}
        for receipt_id in acked:
            assert receipt_id in logged
        svc.close()

    def test_drop_conn_commit_retries_exactly_once(self, tmp_path):
        async def scenario():
            async with CoreServer(log_dir=tmp_path) as server:
                host, port = await server.start()
                client = await CoreClient.connect(host, port, session="t")
                with FaultPlan().crash("server.drop_conn") as plan:
                    summary = await client.commit(TRIANGLE, deadline=20)
                assert plan.fired == ["server.drop_conn"]
                # The ack was dropped with the connection, so the retry
                # was answered from the token record — applied once.
                assert summary["replayed"]
                assert client.reconnects >= 1
                assert (await client.status())["commits"] == 1
                assert await client.cores() == {0: 2, 1: 2, 2: 2}
                return [summary["receipt_id"]]
            return []
        acked = run(scenario())
        self._finish(tmp_path, acked)

    def test_partial_frame_is_discarded_by_the_peer(self, tmp_path):
        async def scenario():
            async with CoreServer(log_dir=tmp_path) as server:
                host, port = await server.start()
                client = await CoreClient.connect(host, port, session="t")
                with FaultPlan().crash("server.partial_frame") as plan:
                    summary = await client.commit(TRIANGLE, deadline=20)
                assert plan.fired == ["server.partial_frame"]
                assert summary["replayed"]
                assert (await client.status())["commits"] == 1
                return [summary["receipt_id"]]
        acked = run(scenario())
        self._finish(tmp_path, acked)

    def test_slow_write_is_latency_not_loss(self, tmp_path):
        async def scenario():
            limits = ServerLimits(slow_write_delay=0.2)
            async with CoreServer(log_dir=tmp_path, limits=limits) as server:
                host, port = await server.start()
                client = await CoreClient.connect(host, port, session="t")
                loop = asyncio.get_running_loop()
                start = loop.time()
                with FaultPlan().crash("server.slow_write") as plan:
                    summary = await client.commit(TRIANGLE, deadline=20)
                assert plan.fired == ["server.slow_write"]
                assert loop.time() - start >= 0.2
                assert not summary["replayed"]  # first reply got through
                assert (await client.status())["commits"] == 1
                return [summary["receipt_id"]]
        acked = run(scenario())
        self._finish(tmp_path, acked)

    def test_drop_conn_during_query_leaves_session_clean(self, tmp_path):
        async def scenario():
            async with CoreServer(log_dir=tmp_path) as server:
                host, port = await server.start()
                client = await CoreClient.connect(host, port, session="t")
                await client.commit(TRIANGLE)
                with FaultPlan().crash("server.drop_conn"):
                    with pytest.raises(Exception):
                        await client.query("cores")
                # Reconnect; nothing was lost or double-applied.
                client2 = await CoreClient.connect(host, port, session="t")
                assert await client2.cores() == {0: 2, 1: 2, 2: 2}
                assert (await client2.status())["commits"] == 1
                await client.close()
                await client2.close()
                return [1]
        acked = run(scenario())
        self._finish(tmp_path, acked)


class TestServerLifecycle:
    def test_restart_resumes_sessions_from_log_dir(self, tmp_path):
        async def scenario():
            async with CoreServer(log_dir=tmp_path) as server:
                host, port = await server.start()
                client = await CoreClient.connect(host, port, session="t")
                await client.commit(TRIANGLE)
                await client.close()
            async with CoreServer(log_dir=tmp_path) as server:
                host, port = await server.start()
                client = await CoreClient.connect(host, port, session="t")
                st = await client.status()
                assert st["receipt"] == 1
                assert st["last_recovery"] is not None
                summary = await client.commit([("insert", 0, 3)])
                assert summary["receipt_id"] == 2
                await client.close()
        run(scenario())

    def test_close_fails_pending_commits(self, tmp_path):
        async def scenario():
            server = CoreServer(log_dir=tmp_path)
            host, port = await server.start()
            client = await CoreClient.connect(host, port, session="t")
            await client.commit(TRIANGLE)
            server.sessions["t"].pause()
            task = asyncio.create_task(
                client.commit([("insert", 5, 6)], retry=False, deadline=30)
            )
            await asyncio.sleep(0.05)
            await server.close()
            with pytest.raises(Exception):
                await task
            await client.close()
        run(scenario())

    def test_concurrent_clients_one_session_serialized(self, tmp_path):
        async def scenario():
            async with CoreServer(log_dir=tmp_path) as server:
                host, port = await server.start()
                clients = [
                    await CoreClient.connect(host, port, session="t")
                    for _ in range(4)
                ]
                edges = [(100 * (i + 1), 100 * (i + 1) + 1)
                         for i in range(16)]
                await asyncio.gather(*[
                    clients[i % 4].commit([("insert", u, v)], deadline=30)
                    for i, (u, v) in enumerate(edges)
                ])
                st = await clients[0].status()
                assert st["commits"] == 16
                assert st["receipt"] == 16
                cores = await clients[0].cores()
                assert all(cores[u] == 1 and cores[v] == 1
                           for u, v in edges)
                for c in clients:
                    await c.close()
        run(scenario())


def test_wire_frames_are_wal_framed(tmp_path):
    """The protocol really shares the WAL's framing discipline."""
    from repro.service import protocol
    from repro.service.wal import frames

    frame = protocol.encode_frame({"id": 1, "ok": True, "result": None})
    assert frame.endswith(b"\n")
    assert list(frames(frame)) == [(0, {"id": 1, "ok": True, "result": None})]
    length, crc, payload = frame[:-1].split(b" ", 2)
    assert int(length) == len(payload)
    json.loads(payload)
