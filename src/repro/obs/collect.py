"""The concrete observability collector: spans + time series for one run.

A :class:`RunObserver` is an :class:`~repro.obs.sink.ObsSink` that owns a
clock (the simulator's virtual ``now`` or a wall clock) and materializes
everything the hooks emit:

* request-lifecycle **spans** (issue → enqueue → freeze → grant →
  release), keyed by the protocol's span key while in flight and matched
  to releases by (node, lock, mode) afterwards;
* windowed **series** — messages by type, per-peer traffic, queue depth,
  copyset size, freeze occupancy, engine events/sec, bytes on wire — and
  a send-latency histogram for real transports.

One observer instance serves a whole cluster (every automaton, the
network and the engine share it), which is what makes cross-layer
correlation by timestamp possible.  A mutex makes it safe for the
threaded transports; the simulator path never contends.
"""

from __future__ import annotations

import threading
import time as _time
from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Tuple

from ..core.messages import LockId, NodeId
from ..core.modes import LockMode
from .series import (
    DEFAULT_WINDOW,
    GaugeSeries,
    Histogram,
    WindowedCounter,
)
from .sink import GRANTED, RELEASED, ObsSink, SpanKey
from .spans import RequestSpan
from .tracing import MessageTracer, canonical_span_key

#: ``() -> float`` time source; the simulator's ``lambda: sim.now`` or a
#: monotonic wall clock.
Clock = Callable[[], float]


class RunObserver(ObsSink):
    """Collects spans and time series for one run."""

    def __init__(
        self,
        clock: Optional[Clock] = None,
        window: float = DEFAULT_WINDOW,
        max_buckets: Optional[int] = None,
        max_spans: Optional[int] = None,
    ) -> None:
        self._clock_rebindable = clock is None
        if clock is None:
            start = _time.monotonic()
            clock = lambda: _time.monotonic() - start  # noqa: E731
        self._clock = clock
        #: Causal message tracer, sharing this observer's clock; the
        #: transports pick it up via ``getattr(obs, "tracer", None)``.
        self.tracer = MessageTracer(clock=lambda: self._clock())
        self._mutex = threading.Lock()
        #: Every span ever opened, in issue order (complete or not).
        #: ``max_spans`` turns this into a ring buffer (oldest spans age
        #: out) so long chaos sweeps stay memory-bounded; the default
        #: keeps everything, as the report renderer expects.
        self.max_spans = max_spans
        self.spans: List[RequestSpan] = (
            [] if max_spans is None else deque(maxlen=max_spans)
        )
        self._open: Dict[SpanKey, RequestSpan] = {}
        self._granted: Dict[Tuple[NodeId, LockId, str], Deque[RequestSpan]] = {}
        self.messages = WindowedCounter(window, max_buckets=max_buckets)
        self.peer_messages = WindowedCounter(window, max_buckets=max_buckets)
        self.wire_bytes = WindowedCounter(window, max_buckets=max_buckets)
        self.engine_events = WindowedCounter(window, max_buckets=max_buckets)
        self.queue_depth_series = GaugeSeries(window, max_buckets=max_buckets)
        self.copyset_series = GaugeSeries(window, max_buckets=max_buckets)
        self.freeze_series = GaugeSeries(window, max_buckets=max_buckets)
        self.send_latency = Histogram()
        self.faults = WindowedCounter(window, max_buckets=max_buckets)
        self.persist_events = WindowedCounter(window, max_buckets=max_buckets)
        self._last_engine_events = 0

    def bind_clock(self, clock: Clock) -> None:
        """Adopt a run's time source (e.g. ``sim.now``) before recording.

        Only takes effect when the observer was built with the default
        wall clock — an explicitly chosen clock is never overridden.
        """

        if self._clock_rebindable:
            self._clock = clock
            self._clock_rebindable = False

    # -- request lifecycle ------------------------------------------------

    def phase(
        self,
        node: NodeId,
        lock_id: LockId,
        key: Optional[SpanKey],
        phase: str,
        mode: Optional[LockMode] = None,
    ) -> None:
        now = self._clock()
        with self._mutex:
            if phase == RELEASED:
                self._close(node, lock_id, mode, now)
                return
            span = self._open.get(key)
            if span is None:
                kind = str(mode) if mode is not None else "?"
                span = RequestSpan(
                    node=node,
                    lock=lock_id,
                    kind=kind,
                    key=canonical_span_key(key),
                )
                self._open[key] = span
                self.spans.append(span)
            span.mark(phase, now)
            if phase == GRANTED:
                del self._open[key]
                slot = (span.node, span.lock, span.kind)
                self._granted.setdefault(slot, deque()).append(span)

    def _close(
        self,
        node: NodeId,
        lock_id: LockId,
        mode: Optional[LockMode],
        now: float,
    ) -> None:
        """Match a release to the oldest granted-unreleased span."""

        kind = str(mode) if mode is not None else "?"
        waiting = self._granted.get((node, lock_id, kind))
        if waiting:
            waiting.popleft().mark(RELEASED, now)

    # -- protocol gauges --------------------------------------------------

    def queue_depth(self, node: NodeId, lock_id: LockId, depth: int) -> None:
        now = self._clock()
        with self._mutex:
            self.queue_depth_series.sample(now, depth)

    def copyset_size(self, node: NodeId, lock_id: LockId, size: int) -> None:
        now = self._clock()
        with self._mutex:
            self.copyset_series.sample(now, size)

    def freeze_size(self, node: NodeId, lock_id: LockId, size: int) -> None:
        now = self._clock()
        with self._mutex:
            self.freeze_series.sample(now, size)

    # -- wire traffic -----------------------------------------------------

    def message(self, sender: NodeId, dest: NodeId, label: str) -> None:
        now = self._clock()
        with self._mutex:
            self.messages.add(now, label)
            self.peer_messages.add(now, f"{sender}->{dest}")

    def wire_sent(
        self, sender: NodeId, dest: NodeId, nbytes: int, seconds: float
    ) -> None:
        now = self._clock()
        with self._mutex:
            if nbytes:
                self.wire_bytes.add(now, "sent", nbytes)
            self.send_latency.record(seconds)

    def wire_received(self, node: NodeId, nbytes: int) -> None:
        if not nbytes:
            return
        now = self._clock()
        with self._mutex:
            self.wire_bytes.add(now, "received", nbytes)

    # -- faults and failures ----------------------------------------------

    def fault(self, kind: str, node: Optional[NodeId] = None) -> None:
        now = self._clock()
        with self._mutex:
            self.faults.add(now, kind)

    def peer_lost(self, node: NodeId, reason: str) -> None:
        now = self._clock()
        with self._mutex:
            self.faults.add(now, "peer_lost")

    # -- durability --------------------------------------------------------

    def persist_event(self, node: NodeId, kind: str) -> None:
        now = self._clock()
        with self._mutex:
            self.persist_events.add(now, kind)

    # -- engine -----------------------------------------------------------

    def engine_tick(self, now: float, events: int) -> None:
        delta = events - self._last_engine_events
        self._last_engine_events = events
        if delta > 0:
            self.engine_events.add(now, "events", delta)

    # -- exports ----------------------------------------------------------

    def completed_spans(self) -> List[RequestSpan]:
        """Spans that reached at least the granted phase."""

        return [span for span in self.spans if span.granted_at is not None]

    def counters(self) -> Dict[str, WindowedCounter]:
        """Non-empty windowed counters by canonical name."""

        named = {
            "messages": self.messages,
            "peer_messages": self.peer_messages,
            "wire_bytes": self.wire_bytes,
            "engine_events": self.engine_events,
            "faults": self.faults,
            "persist_events": self.persist_events,
        }
        return {name: series for name, series in named.items() if series}

    def gauges(self) -> Dict[str, GaugeSeries]:
        """Non-empty gauge series by canonical name."""

        named = {
            "queue_depth": self.queue_depth_series,
            "copyset_size": self.copyset_series,
            "freeze_size": self.freeze_series,
        }
        return {name: series for name, series in named.items() if series}

    def histograms(self) -> Dict[str, Histogram]:
        """Non-empty histograms by canonical name."""

        named = {"send_latency": self.send_latency}
        return {name: series for name, series in named.items() if series}
