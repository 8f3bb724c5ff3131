"""Tests for the observability JSONL export/reload round trip."""

from __future__ import annotations

import io
import json

from repro.obs.collect import RunObserver
from repro.obs.export import RunTrace, load_runs, write_run
from repro.obs.sink import GRANTED, ISSUED, RELEASED


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def _observed():
    clock = FakeClock()
    observer = RunObserver(clock=clock)
    observer.phase(0, "L", "k1", ISSUED, "R")
    clock.now = 0.3
    observer.phase(0, "L", "k1", GRANTED, "R")
    observer.message(0, 1, "request")
    observer.message(1, 0, "token")
    observer.queue_depth(0, "L", 2)
    clock.now = 0.6
    observer.phase(0, "L", None, RELEASED, "R")
    return observer


class TestRoundTrip:
    def test_write_then_load(self):
        observer = _observed()
        buffer = io.StringIO()
        meta = {"protocol": "hierarchical", "nodes": 4, "requests": 1}
        lines = write_run(buffer, observer, meta)
        assert lines == buffer.getvalue().count("\n")
        buffer.seek(0)
        (run,) = load_runs(buffer)
        assert run.meta == meta
        assert run.spans == observer.spans
        assert run.message_totals() == {"request": 1, "token": 1}
        assert run.gauges["queue_depth"].peak() == 2
        assert run.requests == 1
        assert run.label == "hierarchical (4 nodes)"

    def test_multiple_run_sections(self):
        buffer = io.StringIO()
        write_run(buffer, _observed(), {"label": "first"})
        write_run(buffer, _observed(), {"label": "second"})
        buffer.seek(0)
        runs = load_runs(buffer)
        assert [run.label for run in runs] == ["first", "second"]
        assert all(len(run.spans) == 1 for run in runs)

    def test_requests_falls_back_to_granted_spans(self):
        buffer = io.StringIO()
        write_run(buffer, _observed(), {"label": "bare"})
        buffer.seek(0)
        (run,) = load_runs(buffer)
        assert run.requests == 1

    def test_classic_trace_events_interleave(self):
        # Lines in the retired TraceRecorder's format share the file: the
        # loader must keep them without choking on the unknown cat.
        buffer = io.StringIO()
        write_run(buffer, _observed(), {"label": "mixed"})
        classic = {"t": 0.1, "cat": "grant", "node": 0, "lock": "L",
                   "mode": "R", "detail": ""}
        buffer.write(json.dumps(classic) + "\n")
        buffer.seek(0)
        (run,) = load_runs(buffer)
        assert run.events == [classic]
        assert len(run.spans) == 1

    def test_empty_stream(self):
        assert load_runs(io.StringIO("")) == []

    def test_empty_run_trace_defaults(self):
        run = RunTrace()
        assert run.requests == 0
        assert run.message_totals() == {}
        assert run.label == "run"
