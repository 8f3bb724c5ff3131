"""The ``python -m repro chaos`` entry point."""

from __future__ import annotations

import json

import pytest

from repro.__main__ import main


class TestChaosCli:
    def test_clean_plan_exits_zero(self, capsys):
        rc = main([
            "chaos", "--plan", "none", "--seed", "0", "--nodes", "3",
            "--duration", "3", "--grace", "8",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "chaos none seed=0 nodes=3: OK" in out
        assert "rule1 violations: 0" in out

    def test_json_verdict_parses(self, capsys):
        rc = main([
            "chaos", "--plan", "drop1", "--seed", "7", "--nodes", "3",
            "--duration", "3", "--grace", "8", "--json",
        ])
        assert rc == 0
        data = json.loads(capsys.readouterr().out)
        assert data["ok"] is True
        assert data["plan"] == "drop1"
        assert data["seed"] == 7
        assert data["invariants"]["rule1_violations"] == 0
        # Every message sent is booked to the plane its type declared.
        by_plane = data["faults"]["messages_by_plane"]
        assert sum(by_plane.values()) == data["faults"]["messages_sent"]
        assert set(by_plane) == {"protocol", "channel-ack", "heartbeat"}
        assert by_plane["heartbeat"] > by_plane["protocol"] > 0

    def test_unknown_plan_rejected(self):
        with pytest.raises(SystemExit):
            main(["chaos", "--plan", "does-not-exist"])

    def test_wal_dir_without_durable_rejected(self, tmp_path, capsys):
        # A volatile run writes no journal: asking for one is an error,
        # not a silently ignored flag.
        with pytest.raises(SystemExit) as exited:
            main([
                "chaos", "--plan", "none", "--nodes", "3", "--duration",
                "1", "--grace", "2", "--wal-dir", str(tmp_path / "wal"),
            ])
        assert exited.value.code == 2
        assert "--wal-dir requires --durable" in capsys.readouterr().err
        assert not (tmp_path / "wal").exists()

    def test_trace_out_writes_jsonl(self, tmp_path, capsys):
        trace = tmp_path / "chaos.jsonl"
        rc = main([
            "chaos", "--plan", "none", "--seed", "0", "--nodes", "3",
            "--duration", "2", "--grace", "6",
            "--trace-out", str(trace),
        ])
        assert rc == 0
        lines = trace.read_text().splitlines()
        assert lines
        head = json.loads(lines[0])
        assert head["meta"]["plan"] == "none"

    @pytest.mark.chaos
    def test_smoke_plan_ci_invocation(self, capsys):
        # The exact command the CI chaos step runs (shorter windows).
        rc = main([
            "chaos", "--seed", "7", "--plan", "smoke", "--nodes", "4",
            "--duration", "8",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "OK" in out
