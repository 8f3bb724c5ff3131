"""Span and count recording at the layer boundaries, from outside ``src/``.

The traced run of a workload wraps the public entry points of each layer
(see :data:`BOUNDARIES`) before the cluster is built.  Every call becomes
a span (layer, start, end, parent); a layer's *self time* is its span
minus the part its child spans cover, so the layer totals add up to the
outermost span.  Counts that need the message object (plane, pickled
size) are taken at the same boundaries, inside a span of their own
(``trace.accounting``) so that their cost is not charged to a layer.

Spans are folded into per-layer totals as they close; the raw spans are
kept (and can be written out at exit) only when asked for.
"""

from __future__ import annotations

import json
import pickle
import threading
import time
from collections import Counter
from typing import Callable, Dict, List, Optional, Tuple

from repro.faults.plan import PROTOCOL_LABELS, fault_label
from repro.membership.messages import MEMBERSHIP_TYPES

#: (module, class, methods, layer) of every wrapped boundary.
BOUNDARIES: Tuple[Tuple[str, str, Tuple[str, ...], str], ...] = (
    ("repro.core.lockspace", "LockSpace",
     ("request", "release", "upgrade", "handle"), "core.lockspace"),
    ("repro.faults.recovery", "RecoveryManager",
     ("request", "release", "handle"), "faults.recovery"),
    ("repro.faults.channel", "ReliableChannel",
     ("send", "handle"), "faults.channel"),
    ("repro.persist.journal", "NodeJournal", ("record",), "persist.journal"),
    ("repro.obs.flightrec", "FlightRecorder",
     ("record_op", "record_msg"), "obs.flightrec"),
    ("repro.sim.network", "Network", ("send",), "sim.network"),
    ("repro.sim.engine", "Simulator", ("run",), "sim.engine"),
    ("repro.runtime.transport", "ThreadedTransport",
     ("send",), "runtime.transport"),
)

#: Layers reported as ``<layer>.calls`` / ``<layer>.self_s``.
LAYERS = tuple(dict.fromkeys(layer for *_rest, layer in BOUNDARIES))

ACCOUNTING = "trace.accounting"

PLANES = ("protocol", "channel-ack", "heartbeat", "recovery", "membership")


class _ThreadState:
    __slots__ = ("stack", "totals", "counts", "spans")

    def __init__(self, keep: bool) -> None:
        #: Open spans: [layer, start, child_time, span_index].
        self.stack: List[list] = []
        #: layer -> [calls, self_seconds]
        self.totals: Dict[str, List[float]] = {}
        self.counts: Counter = Counter()
        #: Closed raw spans (layer, start, end, parent_index) or None.
        self.spans: Optional[List[list]] = [] if keep else None


class SpanRecorder:
    """Per-thread span stacks folded into per-layer calls and self time."""

    def __init__(
        self,
        clock: Callable[[], float] = time.perf_counter,
        keep_spans: bool = False,
    ) -> None:
        self._clock = clock
        self._keep = keep_spans
        self._local = threading.local()
        self._states: List[_ThreadState] = []
        self._states_lock = threading.Lock()

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = _ThreadState(self._keep)
            with self._states_lock:
                self._states.append(state)
        return state

    def enter(self, layer: str) -> None:
        """Open a span of *layer* under the thread's innermost open span."""

        state = self._state()
        index = -1
        if state.spans is not None:
            parent = state.stack[-1][3] if state.stack else -1
            index = len(state.spans)
            state.spans.append([layer, 0.0, 0.0, parent])
        state.stack.append([layer, self._clock(), 0.0, index])

    def exit(self) -> None:
        """Close the innermost open span."""

        end = self._clock()
        state = self._local.state
        layer, start, child_time, index = state.stack.pop()
        duration = end - start
        total = state.totals.get(layer)
        if total is None:
            total = state.totals[layer] = [0, 0.0]
        total[0] += 1
        total[1] += duration - child_time
        if state.stack:
            state.stack[-1][2] += duration
        if state.spans is not None:
            state.spans[index][1] = start
            state.spans[index][2] = end

    def count(self, key: str, amount: int = 1) -> None:
        """Add *amount* to the calling thread's counter *key*."""

        self._state().counts[key] += amount

    def totals(self) -> Dict[str, Tuple[int, float]]:
        """layer -> (calls, self seconds), over every thread."""

        merged: Dict[str, List[float]] = {}
        with self._states_lock:
            for state in self._states:
                # list(): one C call, so a thread opening its first span of
                # a layer meanwhile cannot resize the dict under the loop.
                for layer, (calls, self_s) in list(state.totals.items()):
                    slot = merged.setdefault(layer, [0, 0.0])
                    slot[0] += calls
                    slot[1] += self_s
        return {layer: (int(c), s) for layer, (c, s) in merged.items()}

    def counts(self) -> Counter:
        """Every counter, summed over threads."""

        merged: Counter = Counter()
        with self._states_lock:
            for state in self._states:
                merged.update(dict(state.counts))
        return merged

    def spans(self) -> List[Tuple[str, float, float, int]]:
        """Raw spans of the calling thread (``keep_spans=True`` only)."""

        return [tuple(span) for span in (self._state().spans or [])]

    def write_spans(self, path: str) -> int:
        """Write every kept span as JSON lines; returns the line count."""

        lines = 0
        with self._states_lock, open(path, "w", encoding="utf-8") as out:
            for thread, state in enumerate(self._states):
                for index, (layer, start, end, parent) in enumerate(
                    state.spans or []
                ):
                    out.write(json.dumps({
                        "thread": thread, "id": index, "parent": parent,
                        "name": layer, "start": start, "end": end,
                    }) + "\n")
                    lines += 1
        return lines


def plane_of(message: object) -> str:
    """Traffic plane of a fabric message (looking through session frames)."""

    label = fault_label(message)
    if label in PROTOCOL_LABELS:
        return "protocol"
    if label == "session-ack":
        return "channel-ack"
    if label == "heartbeat":
        return "heartbeat"
    if isinstance(message, MEMBERSHIP_TYPES):
        return "membership"
    return "recovery"


def _wrap(recorder: SpanRecorder, cls: type, name: str, layer: str, after=None):
    original = getattr(cls, name)

    def traced(self, *args, **kwargs):
        recorder.enter(layer)
        try:
            return original(self, *args, **kwargs)
        finally:
            recorder.exit()
            if after is not None:
                recorder.enter(ACCOUNTING)
                after(*args)
                recorder.exit()

    traced.__name__ = name
    traced.__wrapped__ = original
    setattr(cls, name, traced)
    return cls, name, original


def install(recorder: SpanRecorder) -> Callable[[], None]:
    """Wrap every boundary; returns the function that unwraps them.

    Must run before the cluster is built: fabrics register bound handler
    methods at construction, and only methods looked up after the wrap
    resolve to the traced version.
    """

    import importlib

    def account_fabric(sender, envelopes):
        for envelope in envelopes:
            if envelope.dest == sender:
                continue
            message = envelope.message
            recorder.count("fabric.msgs")
            recorder.count("plane." + plane_of(message))
            recorder.count("fabric.pickled_bytes", len(pickle.dumps(message)))

    restore = []
    for module_name, class_name, methods, layer in BOUNDARIES:
        cls = getattr(importlib.import_module(module_name), class_name)
        fabric = class_name in ("Network", "ThreadedTransport")
        for method in methods:
            restore.append(_wrap(
                recorder, cls, method, layer,
                after=account_fabric if fabric else None,
            ))

    def uninstall() -> None:
        for cls, name, original in reversed(restore):
            setattr(cls, name, original)

    return uninstall
