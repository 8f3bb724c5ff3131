"""Tests for the metrics collector (the figures' y-axes)."""

from __future__ import annotations

import pytest

from repro.metrics import MetricsCollector
from repro.obs.sink import ENQUEUED, GRANTED, ISSUED
from repro.obs.spans import RequestSpan


class TestMessageCounting:
    def test_counts_by_label(self):
        collector = MetricsCollector()
        for label in ("request", "grant", "request", "release"):
            collector.count_message(label)
        assert collector.message_counts["request"] == 2
        assert collector.total_messages == 4

    def test_overhead_divides_by_requests(self):
        collector = MetricsCollector()
        for _ in range(6):
            collector.count_message("request")
        collector.record_request(0, "R", 0.0, 1.0)
        collector.record_request(1, "R", 0.0, 2.0)
        assert collector.message_overhead() == pytest.approx(3.0)

    def test_overhead_zero_without_requests(self):
        collector = MetricsCollector()
        collector.count_message("request")
        assert collector.message_overhead() == 0.0

    def test_breakdown_by_type(self):
        collector = MetricsCollector()
        collector.count_message("grant")
        collector.count_message("grant")
        collector.count_message("token")
        for _ in range(4):
            collector.record_request(0, "R", 0.0, 0.1)
        breakdown = collector.message_overhead_by_type()
        assert breakdown["grant"] == pytest.approx(0.5)
        assert breakdown["token"] == pytest.approx(0.25)


class TestLatency:
    def test_record_latency(self):
        collector = MetricsCollector()
        collector.record_request(3, "W", issued_at=1.0, granted_at=2.5)
        record = collector.requests[0]
        assert record.latency == pytest.approx(1.5)
        assert record.node == 3
        assert record.kind == "W"

    def test_latency_factor_normalizes(self):
        collector = MetricsCollector()
        collector.record_request(0, "R", 0.0, 0.30)
        collector.record_request(0, "R", 0.0, 0.60)
        assert collector.latency_factor(0.150) == pytest.approx(3.0)

    def test_latency_factor_empty_is_zero(self):
        assert MetricsCollector().latency_factor(0.150) == 0.0

    def test_latency_factor_rejects_zero_baseline(self):
        # A zero baseline used to silently produce a flat-zero curve;
        # now it flags the misconfiguration loudly.
        collector = MetricsCollector()
        collector.record_request(0, "R", 0.0, 0.30)
        with pytest.raises(ValueError, match="base_latency"):
            collector.latency_factor(0.0)

    def test_latency_factor_rejects_negative_baseline(self):
        with pytest.raises(ValueError, match="base_latency"):
            MetricsCollector().latency_factor(-0.1)

    def test_latency_summary_filters_by_kind(self):
        collector = MetricsCollector()
        collector.record_request(0, "R", 0.0, 1.0)
        collector.record_request(0, "W", 0.0, 9.0)
        assert collector.latency_summary("R").mean == pytest.approx(1.0)
        assert collector.latency_summary("W").mean == pytest.approx(9.0)
        assert collector.latency_summary().count == 2

    def test_operation_counter(self):
        collector = MetricsCollector()
        collector.record_operation()
        collector.record_operation()
        assert collector.operations == 2


class TestSpanBackedRecords:
    def test_record_request_appends_two_phase_span(self):
        collector = MetricsCollector()
        collector.record_request(0, "R", 1.0, 3.0, lock="db/t")
        assert collector.requests == [
            RequestSpan(
                node=0, lock="db/t", kind="R",
                phases=[(ISSUED, 1.0), (GRANTED, 3.0)],
            )
        ]
        assert collector.requests[0].latency == pytest.approx(2.0)

    def test_record_span_feeds_latency_summary(self):
        span = RequestSpan(node=1, lock="db/t", kind="IW")
        span.mark(ISSUED, 0.0)
        span.mark(ENQUEUED, 0.2)
        span.mark(GRANTED, 0.6)
        collector = MetricsCollector()
        collector.requests.append(span)
        assert collector.total_requests == 1
        assert collector.latency_summary("IW").mean == pytest.approx(0.6)
