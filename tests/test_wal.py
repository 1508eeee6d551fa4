"""Write-ahead commit log: framing, scanning, recovery, compaction.

Covers the WAL in three layers: the framed file format itself (torn
tails truncate, mid-file corruption refuses), the ``WriteAheadLog``
object lifecycle (create/attach/append/rotate/close, fsync policies),
and the ``CoreService`` durable-session integration — open with a log,
crash (simulated by dropping the service without ``close``), recover,
verify the recovered cores against a from-scratch decomposition.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.decomposition import core_numbers
from repro.engine.batch import Batch
from repro.errors import LogCorruptionError, ServiceError
from repro.service import CoreService, WriteAheadLog, log_stat
from repro.service.wal import (
    WAL_VERSION,
    batch_from_ops,
    batch_to_ops,
    frame,
    scan,
    tail,
)

from helpers import MALFORMED_COMMITS

TRIANGLE = [(1, 2), (2, 3), (3, 1)]


def make_log(path, **kwargs):
    kwargs.setdefault("engine", "order")
    return WriteAheadLog.create(path, **kwargs)


class TestFraming:
    def test_roundtrip_batch_ops(self):
        batch = Batch().insert(1, 2).remove(3, 4).insert("a", "b")
        ops = batch_to_ops(batch)
        assert ops == [["insert", 1, 2], ["remove", 3, 4],
                       ["insert", "a", "b"]]
        rebuilt = batch_from_ops(json.loads(json.dumps(ops)))
        assert batch_to_ops(rebuilt) == ops

    def test_scan_empty_log_has_header_only(self, tmp_path):
        log = tmp_path / "s.wal"
        make_log(log).close()
        info = scan(log)
        assert info.header["kind"] == "header"
        assert info.header["version"] == WAL_VERSION
        assert info.records == []
        assert info.torn_bytes == 0
        assert info.last_receipt == 0

    def test_scan_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            scan(tmp_path / "nope.wal")

    def test_scan_no_header_raises(self, tmp_path):
        log = tmp_path / "s.wal"
        log.write_bytes(frame(b'{"kind": "commit", "receipt": 1}'))
        with pytest.raises(LogCorruptionError, match="no valid header"):
            scan(log)

    def test_scan_version_skew_raises(self, tmp_path):
        log = tmp_path / "s.wal"
        payload = json.dumps({"kind": "header", "version": 99}).encode()
        log.write_bytes(frame(payload))
        with pytest.raises(
            LogCorruptionError,
            match=r"'version' is 99; this build reads version 1",
        ):
            scan(log)

    def test_torn_tail_detected_not_raised(self, tmp_path):
        log = tmp_path / "s.wal"
        wal = make_log(log, fsync="never")
        wal.append(1, Batch().insert(1, 2))
        wal.close()
        clean = log.read_bytes()
        log.write_bytes(clean + b"17 deadbeef {garbage")
        info = scan(log)
        assert len(info.records) == 1
        assert info.torn_bytes == len(b"17 deadbeef {garbage")

    def test_mid_file_corruption_raises(self, tmp_path):
        log = tmp_path / "s.wal"
        wal = make_log(log, fsync="never")
        wal.append(1, Batch().insert(1, 2))
        wal.append(2, Batch().insert(2, 3))
        wal.close()
        lines = log.read_bytes().splitlines(keepends=True)
        # Flip a byte inside the FIRST commit record's payload.
        corrupted = bytearray(lines[1])
        corrupted[-5] ^= 0xFF
        log.write_bytes(lines[0] + bytes(corrupted) + lines[2])
        with pytest.raises(
            LogCorruptionError, match="refusing to drop committed history"
        ):
            scan(log)

    def test_non_increasing_receipts_raise(self, tmp_path):
        log = tmp_path / "s.wal"
        wal = make_log(log, fsync="never")
        wal.append(5, Batch().insert(1, 2))
        wal.close()
        record = json.dumps(
            {"kind": "commit", "receipt": 5, "ops": [["insert", 2, 3]]}
        ).encode()
        with open(log, "ab") as fh:
            fh.write(frame(record))
        with pytest.raises(
            LogCorruptionError, match="receipt ids not increasing"
        ):
            scan(log)


class TestWriteAheadLog:
    def test_create_refuses_existing_file(self, tmp_path):
        log = tmp_path / "s.wal"
        make_log(log).close()
        with pytest.raises(
            ServiceError, match="already exists; recover from it"
        ):
            make_log(log)

    def test_append_requires_increasing_receipts(self, tmp_path):
        wal = make_log(tmp_path / "s.wal", fsync="never")
        wal.append(1, Batch().insert(1, 2))
        with pytest.raises(ServiceError, match="must increase"):
            wal.append(1, Batch().insert(2, 3))
        wal.close()

    def test_unknown_fsync_policy_rejected(self, tmp_path):
        with pytest.raises(ServiceError, match="unknown fsync policy"):
            make_log(tmp_path / "s.wal", fsync="sometimes")

    @pytest.mark.parametrize("fsync", ["always", "interval", "never"])
    def test_fsync_policies_all_produce_readable_logs(self, tmp_path, fsync):
        log = tmp_path / f"{fsync}.wal"
        wal = make_log(log, fsync=fsync, fsync_every=2)
        for receipt in range(1, 6):
            wal.append(receipt, Batch().insert(receipt, receipt + 1))
        wal.close()
        info = scan(log)
        assert [r for r, _ in info.records] == [1, 2, 3, 4, 5]

    def test_attach_truncates_torn_tail_physically(self, tmp_path):
        log = tmp_path / "s.wal"
        wal = make_log(log, fsync="never")
        wal.append(1, Batch().insert(1, 2))
        wal.close()
        clean_size = log.stat().st_size
        with open(log, "ab") as fh:
            fh.write(b"99 0bad0bad torn")
        wal = WriteAheadLog.attach(log, scan(log), fsync="never")
        assert log.stat().st_size == clean_size
        assert wal.last_receipt == 1
        wal.append(2, Batch().insert(2, 3))
        wal.close()
        assert [r for r, _ in scan(log).records] == [1, 2]

    def test_rotate_truncates_to_header(self, tmp_path):
        log = tmp_path / "s.wal"
        wal = make_log(log, fsync="never")
        wal.append(1, Batch().insert(1, 2))
        wal.append(2, Batch().insert(2, 3))
        wal.rotate(2)
        info = scan(log)
        assert info.records == []
        assert info.header["base_receipt"] == 2
        assert info.last_receipt == 2
        # Appending continues past the rotated base.
        wal.append(3, Batch().insert(3, 4))
        wal.close()
        assert [r for r, _ in scan(log).records] == [3]

    def test_appended_frames_are_json_dumps_frames(self, tmp_path):
        """Commit records are framed byte for byte as ``json.dumps``
        writes them: unicode, floats, ``None``/``bool`` vertices and
        tokens included."""
        log = tmp_path / "s.wal"
        wal = make_log(log, fsync="never")
        header_bytes = log.read_bytes()
        batches = [
            (Batch().insert(1, 2).remove(3, 4), None),
            (Batch().insert("ä", "ü").insert("x\"y", "z\\w"), "tok-1"),
            (Batch().insert(1.5, 2.25).insert(None, True), "t€"),
            (Batch.inserts([(i, i + 1) for i in range(50)]), "bulk"),
        ]
        expected = b""
        for receipt, (batch, token) in enumerate(batches, start=1):
            wal.append(receipt, batch, token=token)
            record = {
                "kind": "commit",
                "receipt": receipt,
                "ops": batch_to_ops(batch),
            }
            if token is not None:
                record["token"] = token
            expected += frame(json.dumps(record).encode())
        wal.close()
        assert log.read_bytes() == header_bytes + expected

    def test_close_idempotent_append_after_close_raises(self, tmp_path):
        wal = make_log(tmp_path / "s.wal")
        wal.close()
        wal.close()
        assert wal.closed
        with pytest.raises(ServiceError, match="is closed"):
            wal.append(1, Batch().insert(1, 2))

    def test_log_stat_fields(self, tmp_path):
        log = tmp_path / "s.wal"
        wal = make_log(log, fsync="never")
        wal.append(1, Batch().insert(1, 2))
        wal.close()
        stat = log_stat(log)
        assert stat["engine"] == "order"
        assert "seed" not in stat and "seed" not in scan(log).header
        assert stat["version"] == WAL_VERSION
        assert stat["records"] == 1
        assert stat["last_receipt"] == 1
        assert stat["torn_bytes"] == 0
        assert stat["bytes"] == log.stat().st_size


class TestDurableSession:
    def commit(self, svc, *edges, remove=False):
        with svc.transaction() as tx:
            for u, v in edges:
                (tx.remove if remove else tx.insert)(u, v)
        return svc.last_receipt

    def test_open_with_log_then_recover(self, tmp_path):
        log = tmp_path / "s.wal"
        svc = CoreService.open(TRIANGLE, log=log, fsync="never")
        self.commit(svc, (3, 4), (4, 1))
        self.commit(svc, (1, 2), remove=True)
        expected = svc.cores()
        # No close: the process "crashed".
        rec = CoreService.recover(log)
        assert rec.cores() == expected
        assert rec.cores() == core_numbers(rec.engine.graph)
        rec.engine.check()
        assert rec.recovery.replayed == 2
        assert rec.recovery.from_snapshot  # non-empty open snapshots
        rec.close()

    def test_open_empty_graph_recovers_without_snapshot(self, tmp_path):
        log = tmp_path / "s.wal"
        svc = CoreService.open(log=log, fsync="never")
        self.commit(svc, (1, 2), (2, 3), (3, 1))
        expected = svc.cores()
        rec = CoreService.recover(log)
        assert rec.cores() == expected
        assert not rec.recovery.from_snapshot
        rec.close()

    #: Logs written before the sharded engines, the region scheduler,
    #: the policy/backend aliases and the treap backend were deleted:
    #: the header names a retired engine or carries an option that never
    #: changes a core number.  Each replays on the engine it maps to.
    RETIRED_HEADERS = [
        ("order-sharded", {"parallel": 2}, "order"),
        ("order-sharded", {"reshard": "batch", "engine": "order-simplified"},
         "order-simplified"),
        ("order-sharded-simplified", {"partition": True, "parallel": 4},
         "order-simplified"),
        ("order", {"partition": True, "parallel": 2}, "order"),
        *[
            (f"{base}-{suffix}", {}, base)
            for base in ("order", "order-simplified")
            for suffix in ("small", "large", "random", "om", "treap")
        ],
        ("trav", {}, "trav-2"),
        ("order", {"sequence": "treap", "policy": "random"}, "order"),
        ("order-simplified", {"sequence": "om", "policy": "large"},
         "order-simplified"),
        ("order", {"sequence": "om"}, "order"),
        ("order", {"policy": "large"}, "order"),
        ("order-simplified", {"sequence": "treap"}, "order-simplified"),
        ("order-simplified", {"policy": "small"}, "order-simplified"),
        ("order-sharded", {"engine": "order-simplified-treap"},
         "order-simplified"),
    ]

    @pytest.mark.parametrize("engine,opts,rebuilt", RETIRED_HEADERS)
    def test_retired_engine_logs_still_recover(
        self, tmp_path, engine, opts, rebuilt
    ):
        from repro.service import LogReplica

        log = tmp_path / "s.wal"
        wal = make_log(log, engine=engine, opts=opts)
        batches = [
            Batch.inserts([(1, 2), (2, 3), (3, 1), (3, 4), (10, 11)]),
            Batch().remove(1, 2).insert(4, 1).insert(4, 2).insert(11, 3),
            Batch().insert(1, 2).remove(10, 11),
        ]
        live = CoreService.open(engine=rebuilt)
        for receipt, batch in enumerate(batches, start=1):
            wal.append(receipt, batch)
            live.apply(batch)
        wal.close()
        rec = CoreService.recover(log)
        assert rec.engine.name == rebuilt
        assert rec.recovery.replayed == len(batches)
        assert rec.cores() == live.cores()
        assert rec.cores() == core_numbers(rec.engine.graph)
        rec.engine.check()
        replica = LogReplica(log)
        assert replica.engine.name == rebuilt
        assert dict(replica.engine.core) == rec.cores()
        rec.close()

    @pytest.mark.parametrize(
        "header,field",
        [({"engine": "bogus"}, "'engine'"),
         ({"engine": "order", "opts": {"turbo": 1}}, "'opts'"),
         ({"engine": "order-sharded", "opts": {"engine": "bogus"}},
          "'engine'"),
         ({"engine": "order-treap-large"}, "'engine'"),
         ({"engine": ["order"]}, "'engine'"),
         ({"seed": 7, "opts": {"audit": False, "turbo": 1}}, "'opts'")],
    )
    def test_unknown_header_engine_or_option_is_corruption(
        self, tmp_path, header, field
    ):
        from repro.service import LogReplica

        log = tmp_path / "s.wal"
        make_log(log).close()
        self.rewrite_header(log, **header)
        with pytest.raises(LogCorruptionError, match=field):
            CoreService.recover(log)
        with pytest.raises(LogCorruptionError, match=field):
            LogReplica(log)

    def test_audit_is_logged_and_recovered(self, tmp_path):
        log = tmp_path / "s.wal"
        svc = CoreService.open(engine="order", audit=True, log=log)
        assert svc.engine._audit
        self.commit(svc, (1, 2), (2, 3), (3, 1))
        svc.close()
        assert scan(log).header["opts"] == {"audit": True}
        rec = CoreService.recover(log)
        assert rec.engine._audit
        assert rec.cores() == {1: 2, 2: 2, 3: 2}
        rec.close()

    @staticmethod
    def rewrite_header(log, **fields):
        """Re-frame ``log``'s header with ``fields`` set, leaving every
        commit record after it as it was."""
        header = scan(log).header
        header.update(fields)
        records = log.read_bytes().split(b"\n", 1)[1]
        log.write_bytes(frame(json.dumps(header).encode()) + records)

    @pytest.mark.parametrize("compacted", [False, True],
                             ids=["log-only", "snapshot"])
    def test_seeded_header_from_older_builds_recovers(
        self, tmp_path, compacted
    ):
        """Older builds wrote an engine ``"seed"`` (which no engine read)
        and spelled ``opts`` out; recovery ignores the seed."""
        from repro.service import LogReplica

        log = tmp_path / "s.wal"
        svc = CoreService.open(log=log, fsync="never")
        self.commit(svc, (1, 2), (2, 3), (3, 1))
        if compacted:
            svc.compact()
        self.commit(svc, (3, 4), (4, 1), (4, 2))
        expected = svc.cores()
        svc.close()
        self.rewrite_header(log, seed=7, opts={"audit": False})
        rec = CoreService.recover(log)
        assert rec.recovery.from_snapshot == compacted
        assert rec.cores() == expected
        rec.engine.check()
        assert dict(LogReplica(log).engine.core) == expected
        rec.close()

    @pytest.mark.parametrize("engine", ["order", "order-simplified"])
    def test_snapshot_naming_the_treap_backend_recovers(
        self, tmp_path, engine
    ):
        """Compaction snapshots from builds with a backend switch carry
        ``"sequence"``; recovery ignores it and replays the tail."""
        log = tmp_path / "s.wal"
        svc = CoreService.open(TRIANGLE, engine=engine, log=log)
        self.commit(svc, (3, 4), (4, 1))
        snapshot = tmp_path / "s.wal.snapshot"
        raw = json.loads(snapshot.read_text())
        raw["sequence"] = "treap"
        snapshot.write_text(json.dumps(raw))
        expected = svc.cores()
        rec = CoreService.recover(log)
        assert rec.recovery.from_snapshot and rec.recovery.replayed == 1
        assert rec.engine.name == engine
        assert rec.cores() == expected
        rec.engine.check()
        rec.close()

    def test_open_refuses_existing_log(self, tmp_path):
        log = tmp_path / "s.wal"
        CoreService.open(TRIANGLE, log=log).close()
        with pytest.raises(ServiceError, match="already exists"):
            CoreService.open(TRIANGLE, log=log)

    @pytest.mark.parametrize("engine", ["naive", "trav-2"])
    def test_any_engine_nonempty_graph_is_durable(self, tmp_path, engine):
        log = tmp_path / "s.wal"
        svc = CoreService.open(TRIANGLE, engine=engine, log=log)
        self.commit(svc, (3, 4), (4, 1))
        svc.compact()
        self.commit(svc, (4, 2))
        expected = svc.cores()
        rec = CoreService.recover(log)
        assert rec.engine.name == engine
        assert rec.recovery.from_snapshot and rec.recovery.replayed == 1
        assert rec.cores() == expected
        rec.close()

    def test_nonsnapshot_engine_empty_graph_is_durable(self, tmp_path):
        log = tmp_path / "s.wal"
        svc = CoreService.open(engine="naive", log=log, fsync="never")
        self.commit(svc, (1, 2), (2, 3), (3, 1))
        expected = svc.cores()
        rec = CoreService.recover(log)
        assert rec.engine.name == "naive"
        assert rec.cores() == expected
        rec.close()

    def test_recovery_is_idempotent(self, tmp_path):
        log = tmp_path / "s.wal"
        svc = CoreService.open(TRIANGLE, log=log, fsync="never")
        self.commit(svc, (3, 4), (4, 1))
        once = CoreService.recover(log)
        cores_once = once.cores()
        once.close()
        twice = CoreService.recover(log)
        assert twice.cores() == cores_once
        twice.close()

    def test_recovered_receipts_continue(self, tmp_path):
        log = tmp_path / "s.wal"
        svc = CoreService.open(TRIANGLE, log=log, fsync="never")
        first = self.commit(svc, (3, 4))
        rec = CoreService.recover(log)
        second = self.commit(rec, (4, 1))
        assert second.receipt_id == first.receipt_id + 1
        rec.close()
        assert [r for r, _ in scan(log).records] == [
            first.receipt_id, second.receipt_id,
        ]

    def test_compact_truncates_and_recovers(self, tmp_path):
        log = tmp_path / "s.wal"
        svc = CoreService.open(TRIANGLE, log=log, fsync="never")
        self.commit(svc, (3, 4), (4, 1))
        self.commit(svc, (4, 2))
        snap = svc.compact()
        assert snap.exists()
        assert log_stat(log)["records"] == 0
        expected = svc.cores()
        self.commit(svc, (5, 1))  # post-compaction commit still logs
        expected_after = svc.cores()
        svc.close()
        rec = CoreService.recover(log)
        assert rec.recovery.replayed == 1
        assert rec.recovery.from_snapshot
        assert rec.cores() == expected_after
        assert expected != expected_after  # the tail commit mattered
        rec.close()

    def test_recover_skips_records_snapshot_covers(self, tmp_path):
        # Simulate a crash BETWEEN snapshot rename and log rotation by
        # writing the snapshot through save()-style compaction, then
        # restoring the pre-rotation log bytes.
        log = tmp_path / "s.wal"
        svc = CoreService.open(TRIANGLE, log=log, fsync="never")
        self.commit(svc, (3, 4))
        self.commit(svc, (4, 1))
        svc._wal.sync()
        pre_rotation = log.read_bytes()
        svc.compact()
        svc.close()
        log.write_bytes(pre_rotation)  # rotation "never happened"
        rec = CoreService.recover(log)
        assert rec.recovery.skipped == 2
        assert rec.recovery.replayed == 0
        assert rec.cores() == core_numbers(rec.engine.graph)
        rec.close()

    def test_compact_without_log_raises(self):
        svc = CoreService.open(TRIANGLE)
        with pytest.raises(ServiceError, match="no commit log to compact"):
            svc.compact()

    def test_missing_snapshot_with_base_receipt_raises(self, tmp_path):
        log = tmp_path / "s.wal"
        svc = CoreService.open(TRIANGLE, log=log)
        svc.close()
        (tmp_path / "s.wal.snapshot").unlink()
        with pytest.raises(LogCorruptionError, match="is missing"):
            CoreService.recover(log)

    def test_unreplayable_record_raises(self, tmp_path):
        log = tmp_path / "s.wal"
        svc = CoreService.open(log=log, fsync="never")
        self.commit(svc, (1, 2))
        svc.close()
        record = json.dumps(
            {"kind": "commit", "receipt": 2, "ops": [["remove", 8, 9]]}
        ).encode()
        with open(log, "ab") as fh:
            fh.write(frame(record))
        with pytest.raises(
            LogCorruptionError, match="does not apply to the recovered state"
        ):
            CoreService.recover(log)

    def test_close_idempotent_and_commit_after_close(self, tmp_path):
        log = tmp_path / "s.wal"
        svc = CoreService.open(TRIANGLE, log=log)
        svc.close()
        svc.close()
        assert svc.closed
        assert svc.cores()  # reads still answer
        with pytest.raises(ServiceError, match="service is closed"):
            with svc.transaction() as tx:
                tx.insert(9, 10)
        with pytest.raises(ServiceError, match="service is closed"):
            svc.compact()

    def test_context_manager_closes(self, tmp_path):
        log = tmp_path / "s.wal"
        with CoreService.open(TRIANGLE, log=log) as svc:
            self.commit(svc, (3, 4))
        assert svc.closed

    def test_string_vertices_roundtrip(self, tmp_path):
        log = tmp_path / "s.wal"
        svc = CoreService.open(log=log, fsync="never")
        self.commit(svc, ("a", "b"), ("b", "c"), ("c", "a"))
        expected = svc.cores()
        rec = CoreService.recover(log)
        assert rec.cores() == expected
        rec.close()

    def test_failed_commit_does_not_log(self, tmp_path):
        log = tmp_path / "s.wal"
        svc = CoreService.open(TRIANGLE, log=log, fsync="never")
        with pytest.raises(Exception):
            with svc.transaction() as tx:
                tx.remove(1, 9)  # edge does not exist: validation fails
        assert log_stat(log)["records"] == 0
        self.commit(svc, (3, 4))
        assert log_stat(log)["records"] == 1
        svc.close()


class TestTokensAndTailing:
    """PR-8 additions: idempotency tokens in records, incremental tail
    reads, and the cheap header probe the replica's rotation check uses."""

    def test_append_records_token_and_scan_collects_it(self, tmp_path):
        log = tmp_path / "s.wal"
        wal = make_log(log)
        wal.append(1, Batch().insert(1, 2), token="client-a-1")
        wal.append(2, Batch().insert(2, 3))  # tokenless commits stay legal
        wal.append(3, Batch().insert(3, 1), token="client-b-9")
        wal.close()
        info = scan(log)
        assert info.tokens == {1: "client-a-1", 3: "client-b-9"}
        assert [rid for rid, _ in info.records] == [1, 2, 3]

    def test_tokens_survive_recovery_roundtrip(self, tmp_path):
        log = tmp_path / "s.wal"
        svc = CoreService.open(log=log)
        svc.apply(Batch().insert(1, 2), token="tok-1")
        svc.apply(Batch().insert(2, 3), token="tok-2")
        del svc  # crash: no close
        rec = CoreService.recover(log)
        assert scan(log).tokens == {1: "tok-1", 2: "tok-2"}
        # New commits after recovery keep appending tokens.
        rec.apply(Batch().insert(3, 1), token="tok-3")
        assert scan(log).tokens[3] == "tok-3"
        rec.close()

    def test_tail_reads_only_new_frames(self, tmp_path):
        from repro.service.wal import tail

        log = tmp_path / "s.wal"
        wal = make_log(log)
        wal.append(1, Batch().insert(1, 2))
        chunk = tail(log, 0)
        assert [rid for rid, _ in chunk.records] == [1]
        assert not chunk.rotated
        offset = chunk.valid_bytes
        wal.append(2, Batch().insert(2, 3))
        wal.append(3, Batch().insert(3, 1))
        chunk2 = tail(log, offset)
        assert [rid for rid, _ in chunk2.records] == [2, 3]
        assert chunk2.tokens == {}
        # Nothing new: empty chunk, same offset.
        chunk3 = tail(log, chunk2.valid_bytes)
        assert chunk3.records == []
        assert chunk3.valid_bytes == chunk2.valid_bytes
        wal.close()

    def test_tail_tolerates_a_writer_mid_append(self, tmp_path):
        """A partial trailing frame is left for the next poll — the
        replica polls while the primary is mid-write."""
        from repro.service.wal import tail

        log = tmp_path / "s.wal"
        wal = make_log(log)
        wal.append(1, Batch().insert(1, 2))
        base = tail(log, 0).valid_bytes
        full = frame(json.dumps(
            {"kind": "commit", "receipt": 2, "ops": [["insert", 2, 3]]}
        ).encode())
        with open(log, "ab") as fh:
            fh.write(full[: len(full) // 2])
        chunk = tail(log, base)
        assert chunk.records == []  # partial frame: wait, don't guess
        assert chunk.valid_bytes == base
        with open(log, "ab") as fh:
            fh.write(full[len(full) // 2:])
        chunk2 = tail(log, base)
        assert [rid for rid, _ in chunk2.records] == [2]
        wal.close()

    def test_tail_detects_rotation_by_shrink(self, tmp_path):
        from repro.service.wal import tail

        log = tmp_path / "s.wal"
        wal = make_log(log)
        for i in range(5):
            wal.append(i + 1, Batch().insert(i, i + 100))
        offset = tail(log, 0).valid_bytes
        wal.close()
        # Simulate a compaction rotating the log under the tailer: the
        # file is replaced by a fresh, shorter one.
        log.unlink()
        make_log(log, base_receipt=5).close()
        assert tail(log, offset).rotated


class TestOneDecoder:
    """scan, tail and recovery decode commit records the same way."""

    @pytest.mark.parametrize(
        "record", list(MALFORMED_COMMITS.values()),
        ids=list(MALFORMED_COMMITS),
    )
    def test_malformed_commit_is_corruption_everywhere(
        self, tmp_path, record
    ):
        log = tmp_path / "s.wal"
        svc = CoreService.open(log=log)
        svc.insert(1, 2)
        svc.close()
        resume = tail(log, 0).valid_bytes
        with open(log, "ab") as fh:
            fh.write(frame(json.dumps(record).encode()))
        for read in (scan, tail, lambda p: tail(p, resume),
                     CoreService.recover):
            with pytest.raises(
                LogCorruptionError, match=f"byte offset {resume}"
            ):
                read(log)

    def test_tail_reports_the_current_header(self, tmp_path):
        """A resumed tail decodes the header too, so a compaction shows
        even when the rotated log has grown past the old offset."""
        log = tmp_path / "s.wal"
        svc = CoreService.open(log=log, fsync="never")
        svc.insert(1, 2)
        offset = tail(log, 0).valid_bytes
        svc.compact()
        svc.insert(2, 3)
        chunk = tail(log, offset)
        assert chunk.header == scan(log).header
        assert chunk.header["base_receipt"] == 1
        svc.close()

    @settings(max_examples=30, deadline=None)
    @given(
        batches=st.lists(
            st.tuples(st.integers(0, 9), st.integers(10, 19)),
            min_size=1, max_size=12, unique=True,
        ),
        cuts=st.lists(st.integers(0, 2000), max_size=6),
        tokens=st.lists(st.booleans(), min_size=12, max_size=12),
    )
    def test_chained_tails_equal_scan(self, tmp_path_factory, batches,
                                      cuts, tokens):
        """Tailing a growing log at random moments, each call resuming
        at the last ``valid_bytes``, then once more past a writer
        mid-append, reads exactly the records one final scan reads."""
        log = tmp_path_factory.mktemp("tail") / "s.wal"
        wal = make_log(log, fsync="never")
        chained, tokens_seen, offset = [], {}, 0
        moments = {cut % len(batches) for cut in cuts}
        for receipt, (u, v) in enumerate(batches, start=1):
            token = f"t{receipt}" if tokens[receipt - 1] else None
            wal.append(receipt, Batch().insert(u, v), token=token)
            if receipt - 1 in moments:
                chunk = tail(log, offset)
                assert chunk.valid_bytes >= offset
                chained += chunk.records
                tokens_seen.update(chunk.tokens)
                offset = chunk.valid_bytes
        wal.close()
        # A writer mid-append: the partial frame is left for later.
        with open(log, "ab") as fh:
            fh.write(frame(b'{"kind": "commit"}')[:7])
        chunk = tail(log, offset)
        chained += chunk.records
        tokens_seen.update(chunk.tokens)
        info = scan(log)
        assert chained == info.records
        assert tokens_seen == info.tokens
        assert chunk.valid_bytes == info.valid_bytes
        assert chunk.torn_bytes == info.torn_bytes == 7


class TestDamagedSnapshot:
    """A damaged compaction snapshot is log corruption, not a crash."""

    @staticmethod
    def compacted_log(tmp_path):
        log = tmp_path / "s.wal"
        svc = CoreService.open(TRIANGLE, log=log, fsync="never")
        svc.insert(3, 4)
        svc.compact()
        svc.close()
        return log, tmp_path / "s.wal.snapshot"

    @staticmethod
    def damage(snap, how):
        raw = json.loads(snap.read_text())
        if how == "truncated":
            snap.write_text(snap.read_text()[:40])
        elif how == "not-an-object":
            snap.write_text(json.dumps([raw]))
        elif how == "edge-not-a-pair":
            raw["edges"].append(7)
            snap.write_text(json.dumps(raw))
        elif how == "missing-edges":
            del raw["edges"]
            snap.write_text(json.dumps(raw))
        elif how == "vertices-not-a-list":
            raw["vertices"] = {"0": 0}
            snap.write_text(json.dumps(raw))

    @pytest.mark.parametrize(
        "how", ["truncated", "not-an-object", "edge-not-a-pair",
                "missing-edges", "vertices-not-a-list"],
    )
    def test_recover_refuses_damaged_snapshot(self, tmp_path, how):
        from repro.service import LogReplica

        log, snap = self.compacted_log(tmp_path)
        self.damage(snap, how)
        for read in (CoreService.recover, LogReplica):
            with pytest.raises(LogCorruptionError) as info:
                read(log)
            assert str(snap) in str(info.value)
