"""Measurement plumbing: message counters and latency records.

The collector is deliberately protocol-agnostic: the network counts
every envelope that crosses the wire, and a run copies those per-label
counts into :attr:`MetricsCollector.message_counts` when it ends
(:func:`repro.experiments.common.run`); workload clients call
:meth:`MetricsCollector.record_request` once per application-level lock
request (see DESIGN.md §6 for the exact definition of "lock request" per
protocol — it is the denominator of every figure in the paper).
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Optional

from ..obs.sink import GRANTED, ISSUED
from ..obs.spans import RequestSpan
from .stats import Summary, summarize


class MetricsCollector:
    """Accumulates message counts and request latencies for one run."""

    def __init__(self) -> None:
        #: Wire messages by type label (``Network.messages_by_label``).
        self.message_counts: Counter = Counter()
        #: One granted :class:`~repro.obs.spans.RequestSpan` per request.
        self.requests: List[RequestSpan] = []
        self.operations = 0

    # -- message side ---------------------------------------------------

    @property
    def total_messages(self) -> int:
        """Total wire messages observed."""

        return sum(self.message_counts.values())

    # -- request side ---------------------------------------------------

    def record_request(
        self,
        node: int,
        kind: str,
        issued_at: float,
        granted_at: float,
        lock: str = "",
    ) -> None:
        """Record one completed lock request as a two-phase span.

        *kind* is the workload's name for the request (``"IR"``, ``"R"``,
        ``"U"``, ``"IW"``, ``"W"``, ``"entry"``, ``"table"``, ...); *lock*
        is what the fairness analysis groups by.
        """

        self.requests.append(
            RequestSpan(
                node=node,
                lock=lock,
                kind=kind,
                phases=[(ISSUED, issued_at), (GRANTED, granted_at)],
            )
        )

    def record_operation(self) -> None:
        """Record one completed application-level operation."""

        self.operations += 1

    # -- derived figures --------------------------------------------------

    @property
    def total_requests(self) -> int:
        """Number of completed lock requests (the paper's denominator)."""

        return len(self.requests)

    def message_overhead(self) -> float:
        """Average wire messages per lock request (Figure 5's y-axis)."""

        if not self.requests:
            return 0.0
        return self.total_messages / len(self.requests)

    def message_overhead_by_type(self) -> Dict[str, float]:
        """Per-type messages per lock request (Figure 7's y-axis)."""

        if not self.requests:
            return {}
        count = len(self.requests)
        return {
            label: total / count
            for label, total in sorted(self.message_counts.items())
        }

    def latency_summary(self, kind: Optional[str] = None) -> Summary:
        """Summarize request latencies, optionally for one request kind."""

        values = [
            r.latency for r in self.requests if kind is None or r.kind == kind
        ]
        return summarize(values)

    def latency_factor(self, base_latency: float) -> float:
        """Mean latency as a multiple of *base_latency* (Figure 6's y-axis).

        Raises :class:`ValueError` on a non-positive *base_latency*: a
        zero baseline means the experiment never measured one, and
        silently returning 0.0 used to render a flat-zero latency curve
        instead of flagging the misconfiguration.
        """

        if base_latency <= 0:
            raise ValueError(
                f"base_latency must be positive, got {base_latency!r} "
                "(was the baseline latency ever measured?)"
            )
        if not self.requests:
            return 0.0
        return self.latency_summary().mean / base_latency
