"""Tests for the `repro report` renderer, including the end-to-end
guarantee that its message breakdown matches the metrics layer."""

from __future__ import annotations

import io

import pytest

from repro.experiments.common import run_hierarchical
from repro.metrics.stats import percentile, summarize
from repro.obs.export import RunTrace, load_runs, write_run
from repro.obs.report import render_report, render_run
from repro.obs.tracing import Hop, TraceChain
from repro.workload.spec import WorkloadSpec


@pytest.fixture(scope="module")
def observed_run():
    spec = WorkloadSpec(ops_per_node=5, seed=11)
    return run_hierarchical(4, spec, observe=True)


@pytest.fixture(scope="module")
def loaded(observed_run):
    buffer = io.StringIO()
    write_run(buffer, observed_run.observer, observed_run.trace_meta())
    buffer.seek(0)
    (run,) = load_runs(buffer)
    return run


class TestReportRendering:
    def test_sections_present(self, loaded):
        text = render_run(loaded)
        assert "request phases" in text
        assert "message breakdown" in text
        assert "issued->granted" in text
        assert "queue depth timeline" in text

    def test_message_totals_match_metrics(self, observed_run, loaded):
        # The acceptance criterion: per-type counts reloaded from the
        # trace equal MetricsCollector's counters for the same run.
        assert loaded.message_totals() == dict(
            observed_run.metrics.message_counts
        )
        per_request = observed_run.metrics.message_overhead_by_type()
        assert loaded.requests == observed_run.metrics.total_requests
        for label, total in loaded.message_totals().items():
            assert total / loaded.requests == pytest.approx(
                per_request[label]
            )

    def test_spans_reload_monotonic(self, loaded):
        assert loaded.spans
        assert all(span.is_monotonic() for span in loaded.spans)

    def test_render_report_joins_runs(self, loaded):
        text = render_report([loaded, loaded])
        assert text.count("hierarchical (4 nodes)") == 2

    def test_empty_report(self):
        assert "empty trace" in render_report([])

    def test_percentiles_follow_the_metrics_layer_rule(self):
        # Four granted chains with critical paths of 1..4 hops, each hop
        # 0.1 s in transit.  Nearest-rank p50 of four samples is the 2nd
        # (``metrics.stats.percentile``, what ``Summary.p50`` reports);
        # the renderer's own rounding rule used to pick the 3rd.
        chains = []
        for length in (1, 2, 3, 4):
            hops = [
                Hop(
                    hop=n, parent=n - 1, sender=0, dest=1, label="request",
                    sent_at=0.1 * (n - 1), recv_at=0.1 * n,
                )
                for n in range(1, length + 1)
            ]
            chains.append(
                TraceChain(
                    trace_id=f"0.{length}", origin=0, lock="L", issued_at=0.0,
                    hops=hops, granted_hop=length, granted_at=0.1 * length,
                )
            )
        text = render_run(RunTrace(chains=chains))
        assert "length p50 2 p95 4 max 4" in text
        transit = next(
            line.split() for line in text.splitlines()
            if line.startswith("transit")
        )
        assert transit[1:4] == ["0.2500", "0.2000", "0.4000"]
        assert percentile([1, 2, 3, 4], 0.5) == summarize([1, 2, 3, 4]).p50 == 2
