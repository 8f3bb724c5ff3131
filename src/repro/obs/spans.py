"""Request-lifecycle spans: one record per lock request, phase by phase.

A span is the ordered list of ``(phase, timestamp)`` transitions one
request went through::

    issued → [enqueued → [frozen →]] granted → [released]

The bracketed phases only appear when the request actually waited
(``enqueued``) or was blocked by Rule 6 freezing (``frozen``).  The
paper's per-request figures all derive from these transitions: grant
latency is ``granted - issued``, queueing time is ``granted - enqueued``,
hold time is ``released - granted``.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Tuple

from ..core.contract import RAW, field, listing, record, tupled
from .sink import GRANTED, ISSUED, PHASE_ORDER, RELEASED


@record(
    field("node", RAW),
    field("lock", RAW),
    field("kind", RAW),
    field("phases", listing(tupled(RAW, RAW))),
    field("key", RAW, omit=None),
)
@dataclasses.dataclass
class RequestSpan:
    """The recorded lifecycle of one lock request.

    ``kind`` is the request's mode label (``"R"``, ``"IW"``, …) as the
    metrics layer names it; ``phases`` is append-only and kept in event
    order by the collector.
    """

    node: int
    lock: str
    kind: str
    phases: List[Tuple[str, float]] = dataclasses.field(default_factory=list)
    #: Canonical span-key string (``"origin.serial"`` for the
    #: hierarchical protocol, ``"lock:origin"`` for the token baselines);
    #: joins this span with its causal chain (``TraceChain.span_key``).
    key: Optional[str] = None

    # -- recording -------------------------------------------------------

    def mark(self, phase: str, time: float) -> None:
        """Append one phase transition (idempotent per phase name)."""

        if self.time_of(phase) is None:
            self.phases.append((phase, time))

    # -- lookups ---------------------------------------------------------

    def time_of(self, phase: str) -> Optional[float]:
        """Timestamp of the first transition into *phase*, if recorded."""

        for name, time in self.phases:
            if name == phase:
                return time
        return None

    @property
    def issued_at(self) -> Optional[float]:
        """When the request was issued (first phase as a fallback)."""

        issued = self.time_of(ISSUED)
        if issued is not None:
            return issued
        return self.phases[0][1] if self.phases else None

    @property
    def granted_at(self) -> Optional[float]:
        """When the request was granted (None while still waiting)."""

        return self.time_of(GRANTED)

    @property
    def released_at(self) -> Optional[float]:
        """When the granted hold was released (None while held)."""

        return self.time_of(RELEASED)

    @property
    def latency(self) -> Optional[float]:
        """Issue-to-grant latency (the paper's request latency)."""

        return self.wait(ISSUED, GRANTED)

    def wait(self, start: str, end: str) -> Optional[float]:
        """Seconds spent between two recorded phases (None if either is
        missing)."""

        begin, finish = self.time_of(start), self.time_of(end)
        if begin is None or finish is None:
            return None
        return finish - begin

    def is_monotonic(self) -> bool:
        """True iff phases appear in lifecycle order with non-decreasing
        timestamps — the invariant every emitting hook must preserve."""

        last_order = -1
        last_time = float("-inf")
        for name, time in self.phases:
            order = PHASE_ORDER.get(name, -1)
            if order < last_order or time < last_time:
                return False
            last_order, last_time = order, time
        return True
