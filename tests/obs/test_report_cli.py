"""``python -m repro report``: rendering, waterfalls, JSON output, and
the contract that a bad trace file yields a one-line diagnostic and
exit 2 — never a traceback."""

from __future__ import annotations

import json

import pytest

from repro.__main__ import main
from repro.experiments.common import run_hierarchical
from repro.obs.export import write_run
from repro.workload.spec import WorkloadSpec


@pytest.fixture(scope="module")
def trace_path(tmp_path_factory):
    run = run_hierarchical(4, WorkloadSpec(ops_per_node=5, seed=11),
                           observe=True)
    path = tmp_path_factory.mktemp("trace") / "run.jsonl"
    with open(path, "w", encoding="utf-8") as stream:
        write_run(stream, run.observer, run.trace_meta())
    return str(path)


class TestRenderedReport:
    def test_chain_sections_present(self, trace_path, capsys):
        assert main(["report", trace_path]) == 0
        out = capsys.readouterr().out
        assert "causal chains" in out
        assert "hops/request" in out
        assert "critical paths" in out
        for segment in ("transit", "queue", "freeze", "recovery"):
            assert segment in out

    def test_waterfalls_rendered_and_disablable(self, trace_path, capsys):
        assert main(["report", trace_path]) == 0
        with_waterfalls = capsys.readouterr().out
        assert "trace " in with_waterfalls  # per-request waterfall header
        assert main(["report", trace_path, "--waterfall", "0"]) == 0
        without = capsys.readouterr().out
        assert "trace " not in without
        assert "causal chains" in without  # aggregates stay


class TestJsonReport:
    def test_json_output_parses_and_matches_the_run(self, trace_path,
                                                    capsys):
        assert main(["report", trace_path, "--json"]) == 0
        payloads = json.loads(capsys.readouterr().out)
        (payload,) = payloads
        assert payload["meta"]["protocol"] == "hierarchical"
        assert payload["requests"] == payload["spans"]["completed"]
        assert payload["messages"]["total"] == sum(
            payload["messages"]["by_type"].values()
        )
        assert payload["messages"]["per_request"] > 0
        assert "issued->granted" in payload["phases"]
        assert payload["phases"]["issued->granted"]["n"] > 0
        assert payload["chains"]["request_chains"] > 0
        assert payload["chains"]["hops_per_request"] > 0

    def test_json_and_text_agree_on_message_totals(self, trace_path,
                                                   capsys):
        assert main(["report", trace_path, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)[0]
        assert main(["report", trace_path]) == 0
        text = capsys.readouterr().out
        total_line = next(
            line for line in text.splitlines() if line.startswith("TOTAL")
        )
        assert str(payload["messages"]["total"]) in total_line
        assert f"{payload['chains']['total_hops']} hops" in text


class TestBadTraceFiles:
    def _expect_diagnostic(self, argv, capsys):
        rc = main(argv)
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.err.startswith("error:")
        assert len(captured.err.strip().splitlines()) == 1
        assert "Traceback" not in captured.err

    def test_missing_file(self, tmp_path, capsys):
        self._expect_diagnostic(
            ["report", str(tmp_path / "nope.jsonl")], capsys
        )

    def test_empty_file(self, tmp_path, capsys):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        self._expect_diagnostic(["report", str(path)], capsys)

    def test_truncated_jsonl(self, tmp_path, capsys):
        path = tmp_path / "cut.jsonl"
        path.write_text('{"cat": "run", "meta": {"label": "x"}}\n{"cat": "sp')
        self._expect_diagnostic(["report", str(path)], capsys)

    def test_binary_garbage(self, tmp_path, capsys):
        path = tmp_path / "noise.bin"
        path.write_bytes(b"\x80\x02\x95\xff\x00garbage\xfe")
        self._expect_diagnostic(["report", str(path)], capsys)

    def test_flightrec_dump_redirects_to_replay(self, tmp_path, capsys):
        # A flight-recorder dump is binary CRC-framed, not JSONL; report
        # must recognize it and point at the replay subcommand.
        from repro.obs.flightrec import attach_recorders, write_dump
        from repro.sim.cluster import SimHierarchicalCluster

        cluster = SimHierarchicalCluster(2, seed=1)
        recorders = attach_recorders(cluster)
        recorders[0].record_op("L", "request", {"mode": "R"})
        path = tmp_path / "run.flight"
        write_dump(str(path), recorders)
        rc = main(["report", str(path)])
        captured = capsys.readouterr()
        assert rc == 2
        assert "looks like a flightrec dump" in captured.err
        assert "repro replay" in captured.err
        assert len(captured.err.strip().splitlines()) == 1

    def test_classic_trace_events_still_render(self, tmp_path, capsys):
        # Valid JSONL without run sections (the retired TraceRecorder's
        # format): kept as raw events, rendered, exit 0.
        path = tmp_path / "other.jsonl"
        path.write_text('{"t": 0.1, "cat": "grant", "node": 0}\n')
        assert main(["report", str(path)]) == 0
        assert capsys.readouterr().err == ""


class TestChaosTraceReport:
    def test_recovery_activity_visible(self, tmp_path, capsys):
        trace = tmp_path / "chaos.jsonl"
        main([
            "chaos", "--plan", "smoke", "--seed", "0", "--nodes", "3",
            "--duration", "3", "--grace", "8", "--trace-out", str(trace),
        ])
        capsys.readouterr()  # discard the chaos summary
        assert main(["report", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "fault / recovery activity" in out
        assert "crash" in out  # the smoke plan kills a node
        assert "causal chains" in out
