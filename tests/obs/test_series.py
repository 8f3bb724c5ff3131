"""Tests for the windowed time-series primitives."""

from __future__ import annotations

import pytest

from repro.obs.series import (
    GaugeSeries,
    Histogram,
    WindowedCounter,
    series_from_payload,
)


class TestWindowedCounter:
    def test_buckets_by_window(self):
        counter = WindowedCounter(window=1.0)
        counter.add(0.2, "request")
        counter.add(0.9, "request")
        counter.add(1.1, "grant")
        rows = counter.items()
        assert rows == [(0.0, {"request": 2}), (1.0, {"grant": 1})]

    def test_totals(self):
        counter = WindowedCounter()
        counter.add(0.0, "a", 2)
        counter.add(5.0, "a", 3)
        counter.add(5.0, "b")
        assert counter.total() == 6
        assert counter.total("a") == 5
        assert counter.totals() == {"a": 5, "b": 1}
        assert counter.labels() == ["a", "b"]

    def test_empty_is_falsy(self):
        assert not WindowedCounter()
        assert WindowedCounter(window=2.0).totals() == {}

    def test_rejects_bad_window(self):
        with pytest.raises(ValueError):
            WindowedCounter(window=0.0)

    def test_payload_round_trip(self):
        counter = WindowedCounter(window=0.5)
        counter.add(0.1, "x", 4)
        counter.add(2.0, "y")
        rebuilt = series_from_payload(counter.to_payload())
        assert isinstance(rebuilt, WindowedCounter)
        assert rebuilt.window == 0.5
        assert rebuilt.items() == counter.items()

    def test_ring_cap_bounds_buckets_but_keeps_totals_exact(self):
        counter = WindowedCounter(window=1.0, max_buckets=3)
        for tick in range(10):
            counter.add(float(tick), "msg")
        assert len(counter.items()) <= 3
        assert counter.evicted_buckets == 7
        # Whole-run aggregates survive eviction untouched.
        assert counter.total() == 10
        assert counter.totals() == {"msg": 10}
        assert counter.labels() == ["msg"]
        assert counter  # evicted-only state still truthy

    def test_ring_cap_payload_round_trip(self):
        counter = WindowedCounter(window=1.0, max_buckets=2)
        for tick in range(5):
            counter.add(float(tick), "x")
        rebuilt = series_from_payload(counter.to_payload())
        assert rebuilt.total() == counter.total() == 5
        assert rebuilt.items() == counter.items()

    def test_ring_cap_validated(self):
        with pytest.raises(ValueError):
            WindowedCounter(max_buckets=0)


class TestGaugeSeries:
    def test_timeline_mean_and_max(self):
        gauge = GaugeSeries(window=1.0)
        gauge.sample(0.1, 1.0)
        gauge.sample(0.5, 3.0)
        gauge.sample(1.5, 2.0)
        # Window 0: 1.0 for 0.4 s, then 3.0 for 0.5 s; window 1: the
        # 3.0 held on for 0.5 s, then 2.0 with no time credited yet.
        assert gauge.timeline() == [
            (0.0, pytest.approx(1.9 / 0.9), 3.0),
            (1.0, pytest.approx(3.0), 3.0),
        ]
        assert gauge.peak() == 3.0

    def test_mean_weighs_time_not_samples(self):
        gauge = GaugeSeries(window=1.0)
        gauge.sample(0.0, 1.0)
        gauge.sample(0.9, 0.0)
        gauge.sample(1.0, 0.0)
        assert gauge.timeline()[0][1] == pytest.approx(0.9)

    def test_window_without_credited_time_reads_latest_value(self):
        gauge = GaugeSeries(window=1.0)
        gauge.sample(0.2, 4.0)
        gauge.sample(0.2, 2.0)
        assert gauge.timeline() == [(0.0, 2.0, 4.0)]

    def test_a_held_value_fills_the_windows_it_spans(self):
        gauge = GaugeSeries(window=1.0)
        gauge.sample(0.5, 2.0)
        gauge.sample(3.5, 0.0)
        assert gauge.timeline() == [
            (0.0, 2.0, 2.0),
            (1.0, 2.0, 2.0),
            (2.0, 2.0, 2.0),
            (3.0, 2.0, 2.0),
        ]

    def test_empty_peak_is_zero(self):
        assert GaugeSeries().peak() == 0.0

    def test_payload_round_trip(self):
        gauge = GaugeSeries(window=2.0)
        gauge.sample(0.0, 5.0)
        gauge.sample(3.0, 1.0)
        rebuilt = series_from_payload(gauge.to_payload())
        assert isinstance(rebuilt, GaugeSeries)
        assert rebuilt.timeline() == gauge.timeline()

    def test_ring_cap_bounds_timeline_but_keeps_peak_exact(self):
        gauge = GaugeSeries(window=1.0, max_buckets=2)
        gauge.sample(0.0, 9.0)  # the whole-run peak, in a bucket that
        for tick in range(1, 8):  # will be evicted
            gauge.sample(float(tick), 1.0)
        assert len(gauge.timeline()) <= 2
        assert gauge.evicted_buckets == 6
        assert gauge.peak() == 9.0
        assert gauge


class TestHistogram:
    def test_mean_and_max(self):
        histogram = Histogram()
        for value in (0.001, 0.002, 0.003):
            histogram.record(value)
        assert histogram.count == 3
        assert histogram.mean == pytest.approx(0.002)
        assert histogram.maximum == pytest.approx(0.003)

    def test_quantile_brackets_sample(self):
        histogram = Histogram(resolution=1e-6)
        histogram.record(0.010)
        # log2 buckets: the quantile returns the holding bucket's upper
        # edge, which must bracket the sample within a factor of two.
        edge = histogram.quantile(0.5)
        assert 0.010 <= edge <= 0.020 * 2

    def test_quantile_validates_fraction(self):
        with pytest.raises(ValueError):
            Histogram().quantile(1.5)

    def test_empty_quantile_is_zero(self):
        assert Histogram().quantile(0.95) == 0.0

    def test_negative_samples_clamped(self):
        histogram = Histogram()
        histogram.record(-1.0)
        assert histogram.count == 1
        assert histogram.maximum == 0.0

    def test_payload_round_trip(self):
        histogram = Histogram(resolution=1e-3)
        for value in (0.004, 0.1, 7.0):
            histogram.record(value)
        rebuilt = series_from_payload(histogram.to_payload())
        assert isinstance(rebuilt, Histogram)
        assert rebuilt.count == 3
        assert rebuilt.mean == pytest.approx(histogram.mean)
        assert rebuilt.quantile(0.95) == histogram.quantile(0.95)


def test_unknown_series_type_rejected():
    with pytest.raises(ValueError):
        series_from_payload({"type": "sparkline"})
