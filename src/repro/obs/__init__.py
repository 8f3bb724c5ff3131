"""Unified observability: request spans, time series, export, reporting.

Layer map::

    sink.py     ObsSink hook surface (base class == null sink)
    spans.py    RequestSpan lifecycle records (also the metrics layer's
                per-request record)
    series.py   WindowedCounter / GaugeSeries / Histogram primitives
    collect.py  RunObserver — the concrete collector
    tracing.py  causal hop tracing and critical-path attribution
    export.py   JSONL writer/loader for observed runs (``--trace-out``)
    report.py   text-table rendering for `python -m repro report`
    live.py     cluster snapshots + online invariant audit
    monitor.py  Prometheus/JSON HTTP endpoint + health-table rendering

Instrumented components hold an ``obs`` attribute that is ``None`` by
default and guard every hook call with ``if self.obs is not None`` — the
zero-cost contract that keeps benchmarks honest.
"""

from .collect import RunObserver
from .export import RunTrace, load_runs, load_runs_from_path, write_run
from .live import (
    AuditFinding,
    AuditReport,
    ClusterView,
    LiveMonitor,
    LockSnapshot,
    NodeSnapshot,
    QueueEntry,
    RecoveryHealth,
    audit_view,
    snapshot_node,
)
from .monitor import MonitorServer, render_health_table, render_prometheus
from .report import render_report, render_run
from .series import DEFAULT_WINDOW, GaugeSeries, Histogram, WindowedCounter
from .sink import (
    ENQUEUED,
    FROZEN,
    GRANTED,
    ISSUED,
    NULL_SINK,
    PHASES,
    RELEASED,
    ObsSink,
    SpanKey,
)
from .spans import RequestSpan
from .tracing import (
    Hop,
    MessageTracer,
    TraceChain,
    canonical_span_key,
    critical_path,
)

__all__ = [
    "DEFAULT_WINDOW",
    "ENQUEUED",
    "FROZEN",
    "GRANTED",
    "ISSUED",
    "NULL_SINK",
    "PHASES",
    "RELEASED",
    "AuditFinding",
    "AuditReport",
    "ClusterView",
    "GaugeSeries",
    "Histogram",
    "Hop",
    "LiveMonitor",
    "LockSnapshot",
    "MessageTracer",
    "MonitorServer",
    "NodeSnapshot",
    "ObsSink",
    "QueueEntry",
    "RecoveryHealth",
    "RequestSpan",
    "RunObserver",
    "RunTrace",
    "SpanKey",
    "TraceChain",
    "WindowedCounter",
    "audit_view",
    "canonical_span_key",
    "critical_path",
    "load_runs",
    "load_runs_from_path",
    "render_health_table",
    "render_prometheus",
    "render_report",
    "render_run",
    "snapshot_node",
    "write_run",
]
