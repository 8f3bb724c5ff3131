"""JSONL export and reload for observed runs.

The on-disk format is JSON lines — every line is one JSON object with a
``cat`` discriminator:

``{"cat": "run", "meta": {...}}``
    Starts a run section.  ``meta`` carries run identity (protocol,
    nodes, seed) plus run-level aggregates recorded at dump time, most
    importantly ``requests`` (the metrics layer's request count, the
    denominator for per-request figures) and ``messages_by_type``.

``{"cat": "span", "span": {...}}``
    One request-lifecycle span (:meth:`repro.obs.spans.RequestSpan.to_payload`).

``{"cat": "series", "name": ..., "series": {...}}``
    One named time series (counter / gauge / histogram payload).

``{"cat": "chain", "chain": {...}}``
    One causal chain of hop records
    (:meth:`repro.obs.tracing.TraceChain.to_payload`).

Lines of any other ``cat`` (the request/grant/release/message events
of the retired ``TraceRecorder`` format) may be interleaved in the same
file; the loader keeps them as raw dicts on the owning
:class:`RunTrace`.  A file may contain several run sections —
``fig5 --trace-out run.jsonl`` writes one per protocol — and
:func:`load_runs` returns them in order.
"""

from __future__ import annotations

import dataclasses
import json
from typing import IO, Dict, List, Optional

from .collect import RunObserver
from .series import GaugeSeries, Histogram, WindowedCounter, series_from_payload
from .spans import RequestSpan
from .tracing import TraceChain

#: The line categories this module writes.
RUN, SPAN, SERIES, CHAIN = "run", "span", "series", "chain"


@dataclasses.dataclass
class RunTrace:
    """One reloaded run section of a JSONL trace file."""

    meta: Dict[str, object] = dataclasses.field(default_factory=dict)
    spans: List[RequestSpan] = dataclasses.field(default_factory=list)
    counters: Dict[str, WindowedCounter] = dataclasses.field(default_factory=dict)
    gauges: Dict[str, GaugeSeries] = dataclasses.field(default_factory=dict)
    histograms: Dict[str, Histogram] = dataclasses.field(default_factory=dict)
    #: Causal chains recorded by the message tracer, in mint order.
    chains: List[TraceChain] = dataclasses.field(default_factory=list)
    #: Raw lines of any other category (old TraceRecorder events), if any.
    events: List[Dict[str, object]] = dataclasses.field(default_factory=list)

    @property
    def label(self) -> str:
        """Human name of the run (protocol plus size when known)."""

        name = str(self.meta.get("label") or self.meta.get("protocol") or "run")
        nodes = self.meta.get("nodes")
        return f"{name} ({nodes} nodes)" if nodes else name

    @property
    def requests(self) -> int:
        """Per-request denominator: the metrics layer's request count when
        the writer recorded one, else the number of granted spans."""

        recorded = self.meta.get("requests")
        if isinstance(recorded, int) and recorded > 0:
            return recorded
        return sum(1 for span in self.spans if span.granted_at is not None)

    def message_totals(self) -> Dict[str, int]:
        """Wire messages by type over the whole run.

        Matches ``MetricsCollector.message_overhead_by_type`` numerators
        because the observability hook sits at the same network-observer
        point the metrics counter does.
        """

        counter = self.counters.get("messages")
        return counter.totals() if counter is not None else {}


def write_run(
    stream: IO[str],
    observer: RunObserver,
    meta: Optional[Dict[str, object]] = None,
) -> int:
    """Append one run section to *stream*; returns lines written."""

    lines = 0

    def emit(payload: Dict[str, object]) -> None:
        nonlocal lines
        stream.write(json.dumps(payload))
        stream.write("\n")
        lines += 1

    emit({"cat": RUN, "meta": dict(meta or {})})
    for span in observer.spans:
        emit({"cat": SPAN, "span": span.to_payload()})
    for family in (observer.counters(), observer.gauges(), observer.histograms()):
        for name, series in family.items():
            emit({"cat": SERIES, "name": name, "series": series.to_payload()})
    for chain in observer.tracer.chains():
        emit({"cat": CHAIN, "chain": chain.to_payload()})
    return lines


def load_runs(stream: IO[str]) -> List[RunTrace]:
    """Read every run section (and stray trace events) from *stream*."""

    runs: List[RunTrace] = []

    def current() -> RunTrace:
        if not runs:
            runs.append(RunTrace())
        return runs[-1]

    for line in stream:
        line = line.strip()
        if not line:
            continue
        raw = json.loads(line)
        category = raw.get("cat")
        if category == RUN:
            runs.append(RunTrace(meta=dict(raw.get("meta") or {})))
        elif category == SPAN:
            current().spans.append(RequestSpan.from_payload(raw["span"]))
        elif category == CHAIN:
            current().chains.append(TraceChain.from_payload(raw["chain"]))
        elif category == SERIES:
            series = series_from_payload(raw["series"])
            name = raw.get("name", "series")
            run = current()
            if isinstance(series, WindowedCounter):
                run.counters[name] = series
            elif isinstance(series, GaugeSeries):
                run.gauges[name] = series
            else:
                run.histograms[name] = series
        else:
            # Not ours (an old TraceRecorder event): keep it raw.
            current().events.append(raw)
    return runs


def load_runs_from_path(path: str) -> List[RunTrace]:
    """Convenience wrapper for CLI callers."""

    with open(path, "r", encoding="utf-8") as stream:
        return load_runs(stream)
