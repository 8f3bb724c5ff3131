"""Tests for the RunObserver collector and the null sink contract."""

from __future__ import annotations

import itertools
import sys
import threading

import pytest

from repro.obs.collect import RunObserver
from repro.obs.sink import (
    ENQUEUED,
    FROZEN,
    GRANTED,
    ISSUED,
    NULL_SINK,
    RELEASED,
    ObsSink,
)


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def _observer():
    clock = FakeClock()
    return RunObserver(clock=clock), clock


class TestNullSink:
    def test_every_hook_is_a_noop(self):
        sink = ObsSink()
        sink.phase(0, "L", "k", ISSUED)
        sink.phase(0, "L", None, RELEASED, "R")
        sink.queue_depth(0, "L", 3)
        sink.copyset_size(0, "L", 2)
        sink.freeze_size(0, "L", 1)
        sink.message(0, 1, "request")
        sink.wire_sent(0, 1, 64, 0.001)
        sink.wire_received(1, 64)
        sink.engine_tick(1.0, 10)

    def test_shared_null_singleton(self):
        assert isinstance(NULL_SINK, ObsSink)


class TestSpanCollection:
    def test_full_lifecycle_with_freeze_is_monotonic(self):
        observer, clock = _observer()
        key = ("req", 1)
        observer.phase(1, "db/t", key, ISSUED, "IW")
        clock.now = 0.2
        observer.phase(1, "db/t", key, ENQUEUED, "IW")
        observer.phase(1, "db/t", key, FROZEN, "IW")
        clock.now = 1.0
        observer.phase(1, "db/t", key, GRANTED, "IW")
        clock.now = 1.4
        observer.phase(1, "db/t", None, RELEASED, "IW")
        (span,) = observer.spans
        assert span.is_monotonic()
        assert [name for name, _t in span.phases] == [
            ISSUED, ENQUEUED, FROZEN, GRANTED, RELEASED,
        ]
        assert span.latency == 1.0
        assert observer.completed_spans() == [span]

    def test_release_matches_oldest_granted_span(self):
        observer, clock = _observer()
        for index, key in enumerate(("a", "b")):
            clock.now = float(index)
            observer.phase(0, "L", key, ISSUED, "R")
            observer.phase(0, "L", key, GRANTED, "R")
        clock.now = 5.0
        observer.phase(0, "L", None, RELEASED, "R")
        first, second = observer.spans
        assert first.released_at == 5.0
        assert second.released_at is None

    def test_release_requires_matching_mode(self):
        observer, clock = _observer()
        observer.phase(0, "L", "k", ISSUED, "R")
        observer.phase(0, "L", "k", GRANTED, "R")
        clock.now = 1.0
        observer.phase(0, "L", None, RELEASED, "W")  # wrong mode: no match
        assert observer.spans[0].released_at is None

    def test_unknown_key_opens_span_lazily(self):
        observer, _clock = _observer()
        observer.phase(2, "L", "late", GRANTED, "U")
        (span,) = observer.spans
        assert span.kind == "U"
        assert span.granted_at is not None


class TestSeriesCollection:
    def test_messages_and_peers(self):
        observer, clock = _observer()
        observer.message(0, 1, "request")
        clock.now = 0.4
        observer.message(1, 0, "grant")
        assert observer.messages.totals() == {"request": 1, "grant": 1}
        assert observer.peer_messages.totals() == {"0->1": 1, "1->0": 1}
        assert "messages" in observer.counters()

    def test_gauges_sampled_under_canonical_names(self):
        observer, _clock = _observer()
        observer.queue_depth(0, "L", 4)
        observer.copyset_size(0, "L", 2)
        observer.freeze_size(0, "L", 1)
        gauges = observer.gauges()
        assert gauges["queue_depth"].peak() == 4
        assert gauges["copyset_size"].peak() == 2
        assert gauges["freeze_size"].peak() == 1

    def test_gauges_sample_the_cluster_total(self):
        observer, clock = _observer()
        observer.queue_depth(0, "L", 2)
        observer.queue_depth(1, "M", 3)
        clock.now = 0.5
        observer.queue_depth(0, "L", 1)
        clock.now = 0.75
        observer.fault("crash", 1)  # node 1's queue died with it
        series = observer.queue_depth_series
        # 5 for 0.5 s, then 4 for 0.25 s; the 1 left has no time yet.
        assert series.timeline() == [(0.0, pytest.approx(3.5 / 0.75), 5)]
        clock.now = 1.0
        observer.queue_depth(0, "L", 0)
        assert series.timeline()[0][1] == pytest.approx(3.75 / 1.0)

    def test_engine_tick_records_deltas(self):
        observer, _clock = _observer()
        observer.engine_tick(0.5, 10)
        observer.engine_tick(1.5, 25)
        assert observer.engine_events.total("events") == 25

    def test_wire_metrics(self):
        observer, _clock = _observer()
        observer.wire_sent(0, 1, 128, 0.002)
        observer.wire_received(1, 128)
        assert observer.wire_bytes.totals() == {"sent": 128, "received": 128}
        assert observer.send_latency.count == 1
        assert "send_latency" in observer.histograms()

    def test_empty_series_omitted_from_accessors(self):
        observer, _clock = _observer()
        assert observer.counters() == {}
        assert observer.gauges() == {}
        assert observer.histograms() == {}

    def test_ring_caps_bound_memory_without_losing_totals(self):
        # Long chaos runs use bounded sinks: spans become a ring, series
        # buckets age out, but whole-run totals stay exact.
        clock = FakeClock()
        observer = RunObserver(clock=clock, max_buckets=2, max_spans=3)
        for index in range(10):
            clock.now = float(index)
            observer.message(0, 1, "request")
            observer.phase(0, "L", ("req", index), ISSUED, "R")
        assert len(observer.spans) == 3  # ring kept only the newest
        assert observer.messages.total() == 10
        assert len(observer.messages.items()) <= 2
        assert observer.messages.evicted_buckets == 8

    def test_default_construction_is_unbounded(self):
        observer, _clock = _observer()
        assert isinstance(observer.spans, list)
        assert observer.messages.evicted_buckets == 0


class RecordingLock:
    """A lock that counts how often it is taken."""

    def __init__(self) -> None:
        self.acquired = 0
        self._lock = threading.Lock()

    def __enter__(self):
        self.acquired += 1
        return self._lock.__enter__()

    def __exit__(self, *exc_info):
        return self._lock.__exit__(*exc_info)


class TestThreadSafety:
    #: One call per hook.  ``engine_tick`` is left out on purpose: only
    #: the (single-threaded) simulator's event loop ever calls it.
    CALLS = {
        "phase": (0, "L", ("req", 1), ISSUED, "R"),
        "queue_depth": (0, "L", 3),
        "copyset_size": (0, "L", 2),
        "freeze_size": (0, "L", 1),
        "message": (0, 1, "request"),
        "wire_sent": (0, 1, 64, 0.001),
        "wire_received": (1, 64),
        "fault": ("drop", 0),
        "peer_lost": (1, "eof"),
        "persist_event": (0, "granted"),
    }

    def test_every_hook_takes_the_mutex(self):
        # One observer serves every node thread of a threaded cluster
        # and the monitor's HTTP threads read it meanwhile.
        hooks = {
            name
            for name, member in vars(ObsSink).items()
            if callable(member) and not name.startswith("_")
        }
        assert set(self.CALLS) == hooks - {"engine_tick"}
        observer, _clock = _observer()
        observer._mutex = lock = RecordingLock()
        for name, args in self.CALLS.items():
            before = lock.acquired
            getattr(observer, name)(*args)
            assert lock.acquired == before + 1, name

    def test_concurrent_gauge_samples_are_all_counted(self):
        # Every sample opens a new window and evicts the oldest: without
        # the mutex two threads pick the same victim and one of them
        # raises inside a protocol hook.  Each thread's node ends at
        # depth 0, so a lost update of the cluster total shows too.
        ticks = itertools.count()
        observer = RunObserver(clock=lambda: float(next(ticks)), max_buckets=2)
        per_thread, workers = 2000, 8
        errors = []

        def hammer(node):
            try:
                for index in range(per_thread):
                    observer.queue_depth(node, "L", (index + 1) % 2)
            except Exception as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        threads = [
            threading.Thread(target=hammer, args=(node,))
            for node in range(workers)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        series = observer.queue_depth_series
        assert len(series.timeline()) == 2
        assert series.evicted_buckets == per_thread * workers - 2
        assert series.timeline()[-1][1] == 0
