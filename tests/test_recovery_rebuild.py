"""Recovery by rebuilding: replay the log into the graph, index once.

:meth:`CoreService.recover` and :class:`LogReplica` catch up by
replaying a log's records into the compaction snapshot's graph and then
building the engine once (:func:`repro.service.wal.rebuild`); a replica
then tails incrementally through ``apply_batch``.  These tests pin that
both paths agree with the live session they follow — cores, receipts,
tokens and the next commit's events — with ``core_numbers(graph)`` as
the oracle:

* a churn-heavy sliding-window log with a mid-stream compaction,
  recovered at many truncation points and tailed by replicas attached
  at its start and at its end;
* hypothesis-drawn mixed batches on every engine;
* the files in ``tests/data/``, written by the build before edge
  snapshots: a logged session that was compacted once (its snapshot is
  in the version-1 index format) and then committed to further, a
  version-1 ``save()`` checkpoint, and the cores that build recorded.
"""

import json
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.core.decomposition import core_numbers
from repro.engine.batch import Batch
from repro.errors import LogCorruptionError, StaleIndexError
from repro.scenarios import make_scenario
from repro.service import CoreService, LogReplica
from repro.service.wal import frames

DATA = Path(__file__).parent / "data"


def copy_session(tmp_path, name="v1_session.wal"):
    """Copy a logged session (log plus compaction snapshot) to tmp."""
    log = tmp_path / name
    shutil.copy(DATA / "v1_session.wal", log)
    shutil.copy(DATA / "v1_session.wal.snapshot", f"{log}.snapshot")
    return log


def expected_v1():
    return json.loads((DATA / "v1_session.expected.json").read_text())


def as_cores(pairs):
    return {vertex: core for vertex, core in pairs}


class TestVersion1Files:
    """Files the index-snapshot build wrote still recover and load."""

    def test_log_over_v1_snapshot_recovers_the_recorded_cores(self, tmp_path):
        expected = expected_v1()
        rec = CoreService.recover(copy_session(tmp_path))
        assert rec.cores() == as_cores(expected["cores"])
        assert rec.cores() == core_numbers(rec.graph)
        assert rec.cores()["iso"] == 0  # only the v1 "order" list has it
        assert rec.engine_name == expected["engine"]
        assert rec.recovery._asdict() == {
            "replayed": expected["replayed"],
            "skipped": expected["skipped"],
            "torn_bytes": 0,
            "from_snapshot": expected["from_snapshot"],
        }
        assert rec.last_receipt_id == expected["last_receipt"]
        assert rec.logged_tokens == {
            int(receipt): token
            for receipt, token in expected["tokens"].items()
        }
        receipt = rec.apply(Batch().insert(6, 0).insert(7, 0))
        assert receipt.receipt_id == expected["last_receipt"] + 1
        assert rec.cores() == core_numbers(rec.graph)
        rec.close()

    def test_replica_catches_up_on_the_v1_session(self, tmp_path):
        replica = LogReplica(copy_session(tmp_path))
        assert dict(replica.engine.core) == as_cores(expected_v1()["cores"])
        assert replica.receipt == expected_v1()["last_receipt"]

    def test_v1_checkpoint_loads(self):
        restored = CoreService.load(DATA / "v1_saved.json")
        assert restored.cores() == as_cores(expected_v1()["saved_cores"])
        assert restored.engine_name == expected_v1()["engine"]

    def test_compacting_a_v1_session_writes_version_2(self, tmp_path):
        log = copy_session(tmp_path)
        rec = CoreService.recover(log)
        cores = rec.cores()
        snapshot = json.loads(Path(rec.compact()).read_text())
        rec.close()
        assert snapshot["version"] == 2
        assert snapshot["receipt"] == expected_v1()["last_receipt"]
        assert "iso" in snapshot["vertices"]
        again = CoreService.recover(log)
        assert again.cores() == cores
        assert again.recovery.replayed == 0
        again.close()


def damage(snap, how):
    raw = json.loads(snap.read_text())
    vertices = "order" if raw["version"] == 1 else "vertices"
    if how == "bad-json":
        snap.write_text(snap.read_text()[:-9])
        return
    if how == "missing-edges":
        del raw["edges"]
    elif how == "vertices-not-a-list":
        raw[vertices] = "iso"
    snap.write_text(json.dumps(raw))


DAMAGE = ["bad-json", "missing-edges", "vertices-not-a-list"]


@pytest.mark.parametrize("version", [1, 2])
@pytest.mark.parametrize("how", DAMAGE)
class TestDamagedSnapshots:
    """A damaged snapshot of either version is log corruption."""

    def session(self, tmp_path, version):
        log = copy_session(tmp_path)
        if version == 2:
            rec = CoreService.recover(log)
            rec.compact()
            rec.close()
        return log, Path(f"{log}.snapshot")

    def test_recovery_and_replicas_refuse(self, tmp_path, version, how):
        log, snap = self.session(tmp_path, version)
        damage(snap, how)
        for read in (CoreService.recover, LogReplica):
            with pytest.raises(LogCorruptionError, match="damaged"):
                read(log)

    def test_cli_recover_exits_4(self, tmp_path, capsys, version, how):
        log, snap = self.session(tmp_path, version)
        damage(snap, how)
        assert main(["recover", "--log", str(log)]) == 4
        assert str(snap) in capsys.readouterr().err

    def test_load_raises_stale_index(self, tmp_path, version, how):
        _, snap = self.session(tmp_path, version)
        damage(snap, how)
        with pytest.raises((StaleIndexError, ValueError)):
            CoreService.load(snap)


class TestChurnDifferential:
    """A sliding-window log with a mid-stream compaction: recovery at
    many truncation points and two replicas agree with the live session
    tick by tick."""

    COMPACT_AT = 20

    @pytest.fixture(scope="class")
    def run(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("churn")
        scenario = make_scenario(
            "sliding-window", seed=3, ticks=40, arrivals=8, window=6
        )
        log = tmp / "live.wal"
        live = CoreService.open(scenario.base_graph(), log=log, fsync="never")
        early = LogReplica(log)
        cores, tailed, copies = {0: live.cores()}, {}, []
        oracle = {0: core_numbers(live.graph)}
        for index, tick in enumerate(scenario.ticks, start=1):
            receipt = live.apply(tick.batch, token=f"tick-{index}")
            cores[receipt.receipt_id] = live.cores()
            oracle[receipt.receipt_id] = core_numbers(live.graph)
            early.refresh()
            tailed[receipt.receipt_id] = (early.receipt,
                                          dict(early.engine.core))
            if index in (3, self.COMPACT_AT - 1):
                # A crash right here: keep the log as it is.
                dest = tmp / f"at-{index}"
                dest.mkdir()
                shutil.copy(log, dest / "live.wal")
                copies.append((dest / "live.wal", receipt.receipt_id))
            if index == self.COMPACT_AT:
                live.compact()
        live.close()
        assert cores == oracle and max(cores) == len(scenario.ticks)
        return log, cores, tailed, copies, early

    def test_replica_attached_at_the_start_tails_tick_by_tick(self, run):
        _, cores, tailed, _, early = run
        for receipt, (seen, replica_cores) in tailed.items():
            assert seen == receipt
            assert replica_cores == cores[receipt]
        assert early.rebuilds == 2  # the first attach and the rotation

    def test_recover_before_the_compaction(self, run):
        _, cores, _, copies, _ = run
        for log, receipt in copies:
            rec = CoreService.recover(log)
            assert rec.cores() == cores[receipt]
            assert rec.last_receipt_id == receipt
            assert rec.logged_tokens == {
                r: f"tick-{r}" for r in range(1, receipt + 1)
            }
            rec.close()

    def test_recover_at_every_truncation_point(self, run, tmp_path):
        log, cores, _, _, _ = run
        data = log.read_bytes()
        starts = [start for start, _ in frames(data)][1:] + [len(data)]
        for point, end in enumerate(starts):
            for torn in (0, 5) if end < len(data) else (0,):
                cut = tmp_path / f"cut-{point}-{torn}.wal"
                cut.write_bytes(data[: end + torn])
                shutil.copy(f"{log}.snapshot", f"{cut}.snapshot")
                rec = CoreService.recover(cut)
                receipt = self.COMPACT_AT + point
                assert rec.cores() == cores[receipt]
                assert rec.cores() == core_numbers(rec.graph)
                assert rec.last_receipt_id == receipt
                assert rec.recovery.from_snapshot
                assert rec.recovery.replayed == point
                assert rec.recovery.torn_bytes == torn
                rec.close()

    def test_replica_attached_at_the_end(self, run):
        log, cores, _, _, early = run
        late = LogReplica(log)
        final = max(cores)
        assert late.receipt == early.receipt == final
        assert dict(late.engine.core) == cores[final]
        assert late.refresh() == 0


@st.composite
def toggle_batches(draw, n=7, max_batches=8):
    """Two or more mixed batches over ``n`` vertices, valid in order:
    each op toggles a drawn pair (insert if absent, else remove)."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    present: set = set()
    batches = []
    for _ in range(draw(st.integers(2, max_batches))):
        batch = Batch()
        for pair in draw(st.lists(st.sampled_from(pairs), min_size=1,
                                  max_size=6)):
            if pair in present:
                batch.remove(*pair)
                present.discard(pair)
            else:
                batch.insert(*pair)
                present.add(pair)
        batches.append(batch)
    return batches


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    engine=st.sampled_from(["order-simplified", "order", "naive", "trav-2"]),
    batches=toggle_batches(max_batches=9),
    compact_at=st.integers(-1, 7),
)
def test_recovered_session_continues_like_the_live_one(
    engine, batches, compact_at
):
    """Random mixed batches, then recover: cores, receipts, tokens and
    the next commit's receipt and events equal the live session's."""
    *history, last = batches
    with tempfile.TemporaryDirectory() as tmp:
        log = Path(tmp) / "s.wal"
        live = CoreService.open(engine=engine, log=log, fsync="never")
        tokens = {}
        for index, batch in enumerate(history):
            receipt = live.apply(batch, token=f"t{index}")
            tokens[receipt.receipt_id] = f"t{index}"
            if index == compact_at:
                live.compact()
                tokens.clear()
        rec = CoreService.recover(log)
        assert rec.engine_name == engine
        assert rec.cores() == live.cores() == core_numbers(rec.graph)
        assert rec.last_receipt_id == live.last_receipt_id == len(history)
        assert rec.logged_tokens == tokens
        seen_live, seen_rec = [], []
        live.subscribe(seen_live.append)
        rec.subscribe(seen_rec.append)
        ours, theirs = rec.apply(last), live.apply(last)
        assert ours.receipt_id == theirs.receipt_id
        assert ours.deltas == theirs.deltas
        assert seen_rec == seen_live
        assert rec.cores() == live.cores() == core_numbers(rec.graph)
        live.close()
        rec.close()
