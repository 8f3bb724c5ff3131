"""Windowed time-series primitives: counters, gauges and histograms.

Run-level aggregates (what :class:`~repro.metrics.MetricsCollector`
keeps) answer *how much*; these answer *when*.  All three classes bucket
by fixed-width time windows so a long run serializes to a bounded number
of rows regardless of event count.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Dict, List, Optional, Tuple

#: Default bucketing window (simulated seconds for sim runs).
DEFAULT_WINDOW = 1.0


class WindowedCounter:
    """Monotonic counts by label, bucketed into fixed time windows.

    Used for wire messages by type, bytes on wire, per-peer traffic and
    engine events — anything that accumulates.
    """

    def __init__(
        self,
        window: float = DEFAULT_WINDOW,
        max_buckets: Optional[int] = None,
    ) -> None:
        if window <= 0:
            raise ValueError("window must be positive")
        if max_buckets is not None and max_buckets < 1:
            raise ValueError("max_buckets must be positive")
        self.window = window
        #: Ring-buffer cap on retained windows (``None`` = unbounded).
        #: Evicted windows fold into :attr:`evicted` so run-level sums
        #: (``total``/``totals``) stay exact; only ``items`` rows age out.
        self.max_buckets = max_buckets
        self._buckets: Dict[int, Counter] = {}
        self._evicted: Counter = Counter()
        self.evicted_buckets = 0

    def add(self, time: float, label: str, value: int = 1) -> None:
        """Count *value* occurrences of *label* at *time*."""

        bucket = self._buckets.setdefault(int(time // self.window), Counter())
        bucket[label] += value
        if self.max_buckets is not None:
            while len(self._buckets) > self.max_buckets:
                oldest = min(self._buckets)
                self._evicted.update(self._buckets.pop(oldest))
                self.evicted_buckets += 1

    def total(self, label: Optional[str] = None) -> int:
        """Sum over all windows, for one label or all of them."""

        if label is None:
            return sum(self._evicted.values()) + sum(
                sum(c.values()) for c in self._buckets.values()
            )
        return self._evicted.get(label, 0) + sum(
            c.get(label, 0) for c in self._buckets.values()
        )

    def totals(self) -> Dict[str, int]:
        """Per-label sums over the whole run (Figure 7's numerators)."""

        merged: Counter = Counter(self._evicted)
        for bucket in self._buckets.values():
            merged.update(bucket)
        return dict(sorted(merged.items()))

    def labels(self) -> List[str]:
        """Every label seen, sorted."""

        return sorted(self.totals())

    def items(self) -> List[Tuple[float, Dict[str, int]]]:
        """``(window_start_time, {label: count})`` rows, time-ordered."""

        return [
            (index * self.window, dict(sorted(bucket.items())))
            for index, bucket in sorted(self._buckets.items())
        ]

    def __bool__(self) -> bool:
        return bool(self._buckets) or bool(self._evicted)

    # -- serialization ---------------------------------------------------

    def to_payload(self) -> Dict[str, object]:
        payload: Dict[str, object] = {
            "type": "counter",
            "window": self.window,
            "buckets": {
                str(index): dict(bucket)
                for index, bucket in sorted(self._buckets.items())
            },
        }
        if self._evicted:
            payload["evicted"] = dict(sorted(self._evicted.items()))
        return payload

    @staticmethod
    def from_payload(payload: Dict[str, object]) -> "WindowedCounter":
        series = WindowedCounter(window=payload["window"])
        for index, bucket in payload["buckets"].items():
            series._buckets[int(index)] = Counter(bucket)
        series._evicted = Counter(payload.get("evicted", {}))
        return series


class GaugeSeries:
    """Windowed time-weighted means of an instantaneous gauge (queue
    depth, copyset size, freeze occupancy).

    Each sampled value holds until the next sample and is credited, per
    window, for the time it held: a window keeps the seconds credited,
    the value-seconds credited and the largest value seen in it.
    """

    def __init__(
        self,
        window: float = DEFAULT_WINDOW,
        max_buckets: Optional[int] = None,
    ) -> None:
        if window <= 0:
            raise ValueError("window must be positive")
        if max_buckets is not None and max_buckets < 1:
            raise ValueError("max_buckets must be positive")
        self.window = window
        #: Ring-buffer cap on retained windows (``None`` = unbounded);
        #: :meth:`peak` stays whole-run exact, timeline rows age out.
        self.max_buckets = max_buckets
        # bucket index → [seconds, value_seconds, max]
        self._buckets: Dict[int, List[float]] = {}
        #: ``(time, value)`` of the latest sample, not yet credited.
        self._last: Optional[Tuple[float, float]] = None
        self._evicted_peak = 0.0
        self.evicted_buckets = 0

    def sample(self, time: float, value: float) -> None:
        """The gauge reads *value* from *time* on (a *time* before the
        latest sample's counts as that sample's)."""

        if self._last is not None:
            since, held = self._last
            time = max(time, since)
            first, last = int(since // self.window), int(time // self.window)
            for index in range(first, last + 1):
                start = max(since, index * self.window)
                seconds = min(time, (index + 1) * self.window) - start
                if seconds > 0:
                    bucket = self._bucket(index, held)
                    bucket[0] += seconds
                    bucket[1] += held * seconds
        self._last = (time, value)
        self._bucket(int(time // self.window), value)

    def _bucket(self, index: int, value: float) -> List[float]:
        """Window *index*'s bucket, created if new, its max raised to
        *value*."""

        bucket = self._buckets.get(index)
        if bucket is None:
            bucket = self._buckets[index] = [0.0, 0.0, value]
            if self.max_buckets is not None:
                while len(self._buckets) > self.max_buckets:
                    dropped = self._buckets.pop(min(self._buckets))
                    if dropped[2] > self._evicted_peak:
                        self._evicted_peak = dropped[2]
                    self.evicted_buckets += 1
        elif value > bucket[2]:
            bucket[2] = value
        return bucket

    def timeline(self) -> List[Tuple[float, float, float]]:
        """``(window_start_time, mean, max)`` rows, time-ordered; a
        window with no time credited yet reads its latest value."""

        return [
            (
                index * self.window,
                total / seconds if seconds else self._last[1],
                maximum,
            )
            for index, (seconds, total, maximum) in sorted(
                self._buckets.items()
            )
        ]

    def peak(self) -> float:
        """Largest value ever sampled (0.0 when empty)."""

        retained = max((b[2] for b in self._buckets.values()), default=0.0)
        return max(retained, self._evicted_peak)

    def __bool__(self) -> bool:
        return bool(self._buckets) or self.evicted_buckets > 0

    # -- serialization ---------------------------------------------------

    def to_payload(self) -> Dict[str, object]:
        payload: Dict[str, object] = {
            "type": "gauge",
            "window": self.window,
            "buckets": {
                str(index): list(bucket)
                for index, bucket in sorted(self._buckets.items())
            },
        }
        if self._last is not None:
            payload["last"] = list(self._last)
        return payload

    @staticmethod
    def from_payload(payload: Dict[str, object]) -> "GaugeSeries":
        series = GaugeSeries(window=payload["window"])
        for index, bucket in payload["buckets"].items():
            series._buckets[int(index)] = list(bucket)
        if "last" in payload:
            series._last = tuple(payload["last"])
        return series


class Histogram:
    """Log₂-bucketed histogram for strictly positive samples (latencies,
    frame sizes).  Bucket *i* covers ``[2^i, 2^(i+1))`` scaled by
    ``resolution``; all mass below ``resolution`` lands in bucket 0."""

    def __init__(self, resolution: float = 1e-6) -> None:
        if resolution <= 0:
            raise ValueError("resolution must be positive")
        self.resolution = resolution
        self._buckets: Counter = Counter()
        self.count = 0
        self.total = 0.0
        self.maximum = 0.0

    def record(self, value: float) -> None:
        """Add one sample (negative samples are clamped to zero)."""

        value = max(0.0, value)
        index = (
            0
            if value < self.resolution
            else int(math.log2(value / self.resolution)) + 1
        )
        self._buckets[index] += 1
        self.count += 1
        self.total += value
        if value > self.maximum:
            self.maximum = value

    @property
    def mean(self) -> float:
        """Mean of all recorded samples (0.0 when empty)."""

        return self.total / self.count if self.count else 0.0

    def quantile(self, fraction: float) -> float:
        """Upper edge of the bucket holding the *fraction* quantile."""

        if not 0.0 <= fraction <= 1.0:
            raise ValueError("fraction must be within [0, 1]")
        if self.count == 0:
            return 0.0
        rank = fraction * self.count
        seen = 0
        for index in sorted(self._buckets):
            seen += self._buckets[index]
            if seen >= rank:
                return self.resolution * (2.0 ** index)
        return self.maximum

    def __bool__(self) -> bool:
        return self.count > 0

    # -- serialization ---------------------------------------------------

    def to_payload(self) -> Dict[str, object]:
        return {
            "type": "histogram",
            "resolution": self.resolution,
            "count": self.count,
            "total": self.total,
            "max": self.maximum,
            "buckets": {
                str(index): count
                for index, count in sorted(self._buckets.items())
            },
        }

    @staticmethod
    def from_payload(payload: Dict[str, object]) -> "Histogram":
        histogram = Histogram(resolution=payload["resolution"])
        histogram.count = payload["count"]
        histogram.total = payload["total"]
        histogram.maximum = payload["max"]
        for index, count in payload["buckets"].items():
            histogram._buckets[int(index)] = count
        return histogram


#: Payload ``type`` tag → deserializer, for the JSONL loader.
SERIES_TYPES = {
    "counter": WindowedCounter.from_payload,
    "gauge": GaugeSeries.from_payload,
    "histogram": Histogram.from_payload,
}


def series_from_payload(payload: Dict[str, object]):
    """Rebuild any series class from its :meth:`to_payload` output."""

    loader = SERIES_TYPES.get(payload.get("type"))
    if loader is None:
        raise ValueError(f"unknown series type {payload.get('type')!r}")
    return loader(payload)
