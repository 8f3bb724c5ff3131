"""Unified observability: request spans, time series, export, reporting.

Layer map::

    sink.py     ObsSink hook surface (base class == null sink)
    spans.py    RequestSpan lifecycle records (also the metrics layer's
                per-request record)
    series.py   WindowedCounter / GaugeSeries / Histogram primitives
    collect.py  RunObserver — the concrete collector
    tracing.py  causal hop tracing (hop ids ride beside messages, never
                in them) and critical-path attribution
    export.py   JSONL writer/loader for observed runs (``--trace-out``)
    report.py   text-table rendering for `python -m repro report`
    live.py     cluster snapshots + online invariant audit
    monitor.py  Prometheus/JSON HTTP endpoint + health-table rendering

Instrumented components hold an ``obs`` attribute that is ``None`` by
default and guard every hook call with ``if self.obs is not None`` — the
zero-cost contract that keeps benchmarks honest.

The exports below load their submodule on first access (PEP 562), so
importing one layer — the protocol core imports ``sink`` — does not
import the HTTP server behind ``monitor``.
"""

import importlib

#: Exported name -> the submodule defining it.
_EXPORTS = {
    "DEFAULT_WINDOW": "series",
    "ENQUEUED": "sink",
    "FROZEN": "sink",
    "GRANTED": "sink",
    "ISSUED": "sink",
    "NULL_SINK": "sink",
    "PHASES": "sink",
    "RELEASED": "sink",
    "AuditFinding": "live",
    "AuditReport": "live",
    "ClusterView": "live",
    "GaugeSeries": "series",
    "Histogram": "series",
    "Hop": "tracing",
    "LiveMonitor": "live",
    "LockSnapshot": "live",
    "MessageTracer": "tracing",
    "MonitorServer": "monitor",
    "NodeSnapshot": "live",
    "ObsSink": "sink",
    "QueueEntry": "live",
    "RecoveryHealth": "live",
    "RequestSpan": "spans",
    "RunObserver": "collect",
    "RunTrace": "export",
    "SpanKey": "sink",
    "TraceChain": "tracing",
    "WindowedCounter": "series",
    "audit_view": "live",
    "canonical_span_key": "tracing",
    "critical_path": "tracing",
    "load_runs": "export",
    "load_runs_from_path": "export",
    "render_health_table": "monitor",
    "render_prometheus": "monitor",
    "render_report": "report",
    "render_run": "report",
    "snapshot_node": "live",
    "write_run": "export",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str) -> object:
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f".{_EXPORTS[name]}", __name__)
    value = getattr(module, name)
    globals()[name] = value
    return value
