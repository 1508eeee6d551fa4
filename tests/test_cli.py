"""Unit tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main
from repro.engine import DEFAULT_ENGINE


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestParser:
    def test_requires_experiment(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_rejects_unknown_experiment(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig99"])

    def test_rejects_unknown_dataset(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["table1", "--datasets", "nope"])

    def test_parses_hops(self):
        args = build_parser().parse_args(["table2", "--hops", "2,4"])
        assert args.hops == (2, 4)

    def test_engine_help_lists_the_registry(self, capsys):
        from repro.engine.registry import available_engines

        with pytest.raises(SystemExit):
            build_parser().parse_args(["batch", "--help"])
        help_text = " ".join(capsys.readouterr().out.split())
        known = f"{', '.join(available_engines())}, trav-<h> (h >= 2)"
        assert known in help_text
        assert build_parser().parse_args(
            ["batch", "--engine", "trav-9"]
        ).engine == "trav-9"

    @pytest.mark.parametrize("engine", ["order-large", "order-treap", "trav"])
    def test_retired_engine_names_are_rejected(self, capsys, engine):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["batch", "--engine", engine])
        err = capsys.readouterr().err
        assert f"unknown engine {engine!r}" in err
        assert "order-simplified, trav-<h>" in err


class TestCommands:
    def test_table1(self, capsys):
        code, out = run_cli(
            capsys, "table1", "--datasets", "ca", "--scale", "0.15"
        )
        assert code == 0
        assert "ca" in out and "paper" in out

    def test_list_alias(self, capsys):
        code, out = run_cli(
            capsys, "list", "--datasets", "ca,google", "--scale", "0.12"
        )
        assert code == 0
        assert "google" in out

    def test_fig2(self, capsys):
        code, out = run_cli(
            capsys, "fig2", "--datasets", "ca", "--updates", "20",
            "--scale", "0.15",
        )
        assert code == 0
        assert "|V*|" in out

    def test_fig9(self, capsys):
        code, out = run_cli(
            capsys, "fig9", "--datasets", "ca", "--updates", "15",
            "--scale", "0.15",
        )
        assert code == 0
        assert "small" in out.lower()

    def test_fig10(self, capsys):
        code, out = run_cli(
            capsys, "fig10", "--datasets", "ca", "--updates", "15",
            "--scale", "0.15",
        )
        assert code == 0
        assert "core CDF" in out and "K CDF" in out

    def test_table2_with_hops(self, capsys):
        code, out = run_cli(
            capsys, "table2", "--datasets", "ca", "--updates", "15",
            "--hops", "2", "--scale", "0.15",
        )
        assert code == 0
        assert "speedup" in out

    def test_fig12_group_options(self, capsys):
        code, out = run_cli(
            capsys, "fig12", "--datasets", "ca", "--groups", "2",
            "--group-size", "5", "--scale", "0.15",
        )
        assert code == 0
        assert "group" in out

    def test_ablation(self, capsys):
        code, out = run_cli(
            capsys, "ablation", "--datasets", "ca", "--updates", "20",
            "--scale", "0.15",
        )
        assert code == 0
        assert "scan steps" in out

    def test_validate(self, capsys):
        code, out = run_cli(
            capsys, "validate", "--datasets", "ca", "--updates", "20",
            "--scale", "0.15",
        )
        assert code == 0
        assert "ca: ok" in out

    def test_validate_with_engine_flag(self, capsys):
        code, out = run_cli(
            capsys, "validate", "--datasets", "ca", "--updates", "10",
            "--scale", "0.15", "--engine", "trav-2",
        )
        assert code == 0
        assert "ca: ok" in out

    def test_batch(self, capsys):
        code, out = run_cli(
            capsys, "batch", "--datasets", "ca", "--updates", "30",
            "--scale", "0.15", "--batch-size", "10", "--mix", "0.3",
        )
        assert code == 0
        assert "speedup" in out and "naive" in out and "mcd/batch" in out

    def test_batch_with_extra_engine(self, capsys):
        code, out = run_cli(
            capsys, "batch", "--datasets", "ca", "--updates", "20",
            "--scale", "0.15", "--engine", "order-simplified",
        )
        assert code == 0
        assert "order-simplified" in out


class TestDurabilityCommands:
    def make_log(self, tmp_path):
        from repro.service import CoreService

        log = tmp_path / "session.wal"
        svc = CoreService.open([(1, 2), (2, 3), (3, 1)], log=log)
        with svc.transaction() as tx:
            tx.insert(3, 4)
        svc.close()
        return log

    def test_log_stat(self, capsys, tmp_path):
        log = self.make_log(tmp_path)
        code, out = run_cli(capsys, "log-stat", "--log", str(log))
        assert code == 0
        assert "engine: order" in out
        assert "records: 1" in out
        assert "torn_bytes: 0" in out

    def test_recover(self, capsys, tmp_path):
        log = self.make_log(tmp_path)
        code, out = run_cli(capsys, "recover", "--log", str(log))
        assert code == 0
        assert "replayed: 1" in out
        assert "4 vertices, 4 edges" in out

    def test_recover_compact(self, capsys, tmp_path):
        log = self.make_log(tmp_path)
        code, out = run_cli(
            capsys, "recover", "--log", str(log), "--compact"
        )
        assert code == 0
        assert "compacted: snapshot at" in out
        code, out = run_cli(capsys, "log-stat", "--log", str(log))
        assert "records: 0" in out

    def test_log_flag_required(self, capsys, tmp_path):
        for cmd in ("recover", "log-stat"):
            code = main([cmd])
            err = capsys.readouterr().err
            assert code == 2
            assert "--log PATH is required" in err

    def test_missing_log_file_fails_cleanly(self, capsys, tmp_path):
        for cmd in ("recover", "log-stat"):
            code = main([cmd, "--log", str(tmp_path / "nope.wal")])
            err = capsys.readouterr().err
            assert code == 1
            assert "nope.wal" in err


class TestHardenedDurabilityCommands:
    """PR-8 hardening: --json payloads and scriptable exit codes
    (0 clean, 3 torn tail, 4 corruption, 1 other errors, 2 usage)."""

    def make_log(self, tmp_path):
        from repro.service import CoreService

        log = tmp_path / "session.wal"
        svc = CoreService.open([(1, 2), (2, 3), (3, 1)], log=log)
        with svc.transaction() as tx:
            tx.insert(3, 4)
        svc.close()
        return log

    def tear(self, log):
        with open(log, "ab") as fh:
            fh.write(b"37 deadbeef {\"torn")

    def corrupt(self, log):
        data = log.read_bytes()
        mid = len(data) // 2
        log.write_bytes(data[:mid] + b"XXXX" + data[mid + 4:])

    def test_log_stat_json_clean(self, capsys, tmp_path):
        import json as _json

        log = self.make_log(tmp_path)
        code, out = run_cli(capsys, "log-stat", "--log", str(log), "--json")
        assert code == 0
        payload = _json.loads(out)
        assert payload["engine"] == DEFAULT_ENGINE
        assert payload["records"] == 1
        assert payload["torn_bytes"] == 0

    def test_recover_json_clean(self, capsys, tmp_path):
        import json as _json

        log = self.make_log(tmp_path)
        code, out = run_cli(capsys, "recover", "--log", str(log), "--json")
        assert code == 0
        payload = _json.loads(out)
        assert payload["replayed"] == 1
        assert payload["vertices"] == 4
        assert payload["edges"] == 4
        assert payload["torn_bytes"] == 0

    def test_torn_tail_exits_3(self, capsys, tmp_path):
        import json as _json

        log = self.make_log(tmp_path)
        self.tear(log)
        code, out = run_cli(capsys, "log-stat", "--log", str(log), "--json")
        assert code == 3
        assert _json.loads(out)["torn_bytes"] > 0
        # Recovery repairs the tail but still reports it via the code.
        code, out = run_cli(capsys, "recover", "--log", str(log), "--json")
        assert code == 3
        assert _json.loads(out)["torn_bytes"] > 0
        # The repair truncated the tail: a second pass is clean.
        code, out = run_cli(capsys, "log-stat", "--log", str(log))
        assert code == 0

    def test_corruption_exits_4(self, capsys, tmp_path):
        import json as _json

        log = self.make_log(tmp_path)
        self.corrupt(log)
        for cmd in ("log-stat", "recover"):
            code = main([cmd, "--log", str(log), "--json"])
            captured = capsys.readouterr()
            assert code == 4
            assert _json.loads(captured.out)["corrupt"] is True
            assert "corrupt" in captured.err

    def test_malformed_commit_record_exits_4(self, capsys, tmp_path):
        from repro.service.wal import frame

        log = self.make_log(tmp_path)
        with open(log, "ab") as fh:
            fh.write(frame(b'{"kind": "commit"}'))
        for cmd in ("log-stat", "recover"):
            code = main([cmd, "--log", str(log)])
            assert code == 4
            assert "field 'receipt'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "damage",
        ['{"version": 1, "order": [', "[1, 2]", "edges"],
        ids=["truncated", "not-an-object", "edge-not-a-pair"],
    )
    def test_damaged_snapshot_exits_4(self, capsys, tmp_path, damage):
        import json as _json

        from repro.service import CoreService

        log = self.make_log(tmp_path)
        svc = CoreService.recover(log)
        svc.compact()
        svc.close()
        snap = tmp_path / "session.wal.snapshot"
        if damage == "edges":
            raw = _json.loads(snap.read_text())
            raw["edges"].append(7)
            damage = _json.dumps(raw)
        snap.write_text(damage)
        code = main(["recover", "--log", str(log)])
        assert code == 4
        assert str(snap) in capsys.readouterr().err

    @pytest.mark.parametrize(
        "engine,rebuilt",
        [(f"{base}-{suffix}", base)
         for base in ("order", "order-simplified")
         for suffix in ("small", "large", "random", "om", "treap")]
        + [("trav", "trav-2")],
    )
    def test_retired_alias_header_recovers(
        self, capsys, tmp_path, engine, rebuilt
    ):
        import json as _json

        from repro.engine import Batch
        from repro.service import WriteAheadLog

        log = tmp_path / "alias.wal"
        wal = WriteAheadLog.create(log, engine=engine)
        wal.append(1, Batch.inserts([(1, 2), (2, 3), (3, 1), (3, 4)]))
        wal.close()
        code, out = run_cli(capsys, "recover", "--log", str(log), "--json")
        assert code == 0
        payload = _json.loads(out)
        assert payload["engine"] == rebuilt
        assert payload["replayed"] == 1
        assert payload["vertices"] == 4 and payload["edges"] == 4

    def test_unknown_header_engine_exits_4(self, capsys, tmp_path):
        from repro.service import WriteAheadLog

        log = tmp_path / "bogus.wal"
        WriteAheadLog.create(log, engine="bogus").close()
        code = main(["recover", "--log", str(log)])
        assert code == 4
        assert "'engine'" in capsys.readouterr().err

    def test_recover_json_compact(self, capsys, tmp_path):
        import json as _json

        log = self.make_log(tmp_path)
        code, out = run_cli(
            capsys, "recover", "--log", str(log), "--json", "--compact"
        )
        assert code == 0
        assert _json.loads(out)["snapshot"].endswith(".snapshot")


class TestServeCommand:
    def test_serve_binds_and_exits_cleanly(self, capsys, tmp_path):
        code, out = run_cli(
            capsys, "serve", "--port", "0", "--max-seconds", "0.2",
            "--log-dir", str(tmp_path),
        )
        assert code == 0
        assert "listening on 127.0.0.1:" in out
        assert f"log_dir={tmp_path}" in out

    def test_serve_memory_only_warns(self, capsys):
        code, out = run_cli(
            capsys, "serve", "--port", "0", "--max-seconds", "0.1"
        )
        assert code == 0
        assert "memory-only" in out

    def test_serve_actually_serves(self, capsys, tmp_path):
        import asyncio
        import re as _re

        from repro.service import CoreClient, CoreServer

        async def scenario():
            async with CoreServer(log_dir=tmp_path) as server:
                host, port = await server.start()
                client = await CoreClient.connect(host, port, session="t")
                await client.commit(
                    [["insert", 1, 2], ["insert", 2, 3], ["insert", 3, 1]]
                )
                cores = await client.cores()
                await client.close()
                return cores

        assert asyncio.run(scenario()) == {1: 2, 2: 2, 3: 2}
        # And the session's log is now inspectable by the CLI.
        code, out = run_cli(
            capsys, "log-stat", "--log", str(tmp_path / "t.wal")
        )
        assert code == 0
        assert _re.search(r"records: 1", out)


class TestScenarioCommands:
    def gen(self, capsys, tmp_path, *extra):
        path = tmp_path / "scenario.trace"
        code, _ = run_cli(
            capsys, "gen", "--scenario", "burst", "--seed", "7",
            "--out", str(path), *extra,
        )
        assert code == 0
        return path

    def test_gen_writes_a_loadable_trace(self, capsys, tmp_path):
        from repro import scenarios as sc

        path = self.gen(capsys, tmp_path)
        info = sc.verify(path)
        assert info.name == "burst" and info.seed == 7

    def test_gen_is_byte_identical_across_runs(self, capsys, tmp_path):
        a = self.gen(capsys, tmp_path)
        data = a.read_bytes()
        a.unlink()
        b = self.gen(capsys, tmp_path)
        assert b.read_bytes() == data

    def test_gen_requires_scenario_name(self, capsys):
        code = main(["gen"])
        assert code == 2
        assert "--scenario" in capsys.readouterr().err

    def test_gen_rejects_unknown_scenario(self, capsys):
        code, _ = run_cli(capsys, "gen", "--scenario", "nope")
        assert code == 2

    def test_gen_json_summary(self, capsys, tmp_path):
        import json

        path = tmp_path / "s.trace"
        code, out = run_cli(
            capsys, "gen", "--scenario", "mixed", "--seed", "3",
            "--out", str(path), "--json",
        )
        assert code == 0
        summary = json.loads(out)
        assert summary["name"] == "mixed"
        assert summary["bytes"] == path.stat().st_size

    def test_replay_with_check(self, capsys, tmp_path):
        path = self.gen(capsys, tmp_path)
        code, out = run_cli(
            capsys, "replay", "--trace", str(path), "--check",
            "--seed", "7",
        )
        assert code == 0
        assert "agreement across order, order-simplified" in out

    def test_replay_json(self, capsys, tmp_path):
        import json

        path = self.gen(capsys, tmp_path)
        code, out = run_cli(
            capsys, "replay", "--trace", str(path), "--check",
            "--seed", "7", "--json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["scenario"] == "burst"
        assert payload["checked"] is True
        assert payload["engines"] == ["order", "order-simplified"]

    def test_replay_rejects_corrupt_trace(self, capsys, tmp_path):
        path = self.gen(capsys, tmp_path)
        data = bytearray(path.read_bytes())
        data[len(data) // 2] ^= 0xFF
        path.write_bytes(bytes(data))
        capsys.readouterr()
        code = main(["replay", "--trace", str(path), "--check"])
        assert code == 4
        assert "corrupt" in capsys.readouterr().err

    def test_replay_detects_seed_mismatch(self, capsys, tmp_path):
        """--check regenerates from the header: a tampered-but-reframed
        trace whose ticks differ from its claimed family/seed fails."""
        from repro.scenarios.trace import _canonical
        from repro.service.wal import frame, frames

        path = self.gen(capsys, tmp_path)
        # Re-frame the header claiming a different seed (valid CRC).
        data = path.read_bytes()
        end = data.find(b"\n")
        _, header = next(frames(data))
        header["seed"] = 8
        path.write_bytes(frame(_canonical(header)) + data[end + 1:])
        capsys.readouterr()
        code = main(["replay", "--trace", str(path), "--check"])
        assert code == 5
        assert "regenerat" in capsys.readouterr().err

    def test_replay_rejects_unknown_engines(self, capsys, tmp_path):
        path = self.gen(capsys, tmp_path)
        code, _ = run_cli(
            capsys, "replay", "--trace", str(path), "--check",
            "--engines", "order,warp-drive",
        )
        assert code == 2

    def test_replay_missing_trace_file(self, capsys, tmp_path):
        code, _ = run_cli(
            capsys, "replay", "--trace", str(tmp_path / "nope.trace")
        )
        assert code == 1
