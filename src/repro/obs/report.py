"""Text-table reporting over reloaded run traces (`repro report`).

Renders, per run section of a JSONL trace file:

* **per-phase latency percentiles** — each lifecycle segment a request
  can spend time in (issue→grant, enqueue→grant, freeze→grant,
  grant→release) summarized over all completed spans;
* **Fig. 7-style message breakdown** — wire messages by type, with
  per-request averages using the run's recorded request count;
* **causal chains** — hop-count histogram, critical-path-length
  percentiles and a latency-by-segment decomposition (transit /
  queue-wait / freeze-wait / recovery-stall) over every granted
  request's traced chain, plus per-request waterfalls for the slowest
  grants (see docs/TRACING.md for the reading guide);
* **fault / recovery activity** — injector actions and recovery events
  (suspects, retransmissions, token regenerations) when recorded;
* **queue-depth timeline** — the windowed gauge as (time, mean, max)
  rows, condensed to a bounded number of lines;
* engine throughput and wire-level sections when the corresponding
  series were recorded.

Everything is plain text for terminals and log files; no plotting.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..metrics.stats import percentile, summarize
from .export import RunTrace
from .series import GaugeSeries
from .sink import ENQUEUED, FROZEN, GRANTED, ISSUED, RELEASED
from .spans import RequestSpan
from .tracing import PATH_SEGMENTS, TraceChain, critical_path

#: Lifecycle segments reported, as (label, start_phase, end_phase).
SEGMENTS: Tuple[Tuple[str, str, str], ...] = (
    ("issued->granted", ISSUED, GRANTED),
    ("issued->enqueued", ISSUED, ENQUEUED),
    ("enqueued->granted", ENQUEUED, GRANTED),
    ("frozen->granted", FROZEN, GRANTED),
    ("granted->released", GRANTED, RELEASED),
)

#: Longest timeline rendered before adjacent windows get merged.
MAX_TIMELINE_ROWS = 40

#: Slowest granted chains rendered as waterfalls by default.
DEFAULT_WATERFALLS = 3


def _table(headers: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    """Render a padded text table (first column left-aligned)."""

    widths = [len(h) for h in headers]
    for row in rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))

    def fmt(cells: Sequence[str]) -> str:
        parts = []
        for index, cell in enumerate(cells):
            if index == 0:
                parts.append(cell.ljust(widths[index]))
            else:
                parts.append(cell.rjust(widths[index]))
        return "  ".join(parts).rstrip()

    lines = [fmt(headers), fmt(["-" * w for w in widths])]
    lines.extend(fmt(row) for row in rows)
    return "\n".join(lines)


def _phase_rows(spans: Sequence[RequestSpan]) -> List[List[str]]:
    rows: List[List[str]] = []
    for label, start, end in SEGMENTS:
        samples = [w for s in spans if (w := s.wait(start, end)) is not None]
        if not samples:
            continue
        stats = summarize(samples)
        rows.append(
            [
                label,
                str(stats.count),
                f"{stats.mean:.4f}",
                f"{stats.p50:.4f}",
                f"{stats.p95:.4f}",
                f"{stats.maximum:.4f}",
            ]
        )
    return rows


def _message_rows(run: RunTrace) -> List[List[str]]:
    totals = run.message_totals()
    if not totals:
        return []
    requests = run.requests
    grand_total = sum(totals.values())
    rows = []
    for label, count in sorted(totals.items(), key=lambda kv: -kv[1]):
        per_request = count / requests if requests else 0.0
        share = 100.0 * count / grand_total if grand_total else 0.0
        rows.append([label, str(count), f"{per_request:.3f}", f"{share:.1f}%"])
    per_request = grand_total / requests if requests else 0.0
    rows.append(["TOTAL", str(grand_total), f"{per_request:.3f}", "100.0%"])
    return rows


def _condense(
    timeline: List[Tuple[float, float, float]], max_rows: int
) -> List[Tuple[float, float, float]]:
    """Merge adjacent windows until at most *max_rows* remain."""

    if len(timeline) <= max_rows:
        return timeline
    stride = -(-len(timeline) // max_rows)  # ceil division
    merged: List[Tuple[float, float, float]] = []
    for start in range(0, len(timeline), stride):
        chunk = timeline[start : start + stride]
        mean = sum(row[1] for row in chunk) / len(chunk)
        peak = max(row[2] for row in chunk)
        merged.append((chunk[0][0], mean, peak))
    return merged


def _timeline_rows(gauge: GaugeSeries) -> List[List[str]]:
    return [
        [f"{time:.1f}", f"{mean:.2f}", f"{peak:.0f}"]
        for time, mean, peak in _condense(gauge.timeline(), MAX_TIMELINE_ROWS)
    ]


def _frozen_lookup(run: RunTrace) -> Dict[str, float]:
    """Span-key → freeze timestamp, for chain critical paths."""

    frozen: Dict[str, float] = {}
    for span in run.spans:
        if span.key is None:
            continue
        at = span.time_of(FROZEN)
        if at is not None:
            frozen[span.key] = at
    return frozen


def _chain_rows(run: RunTrace) -> List[str]:
    """The causal-chain aggregate section (histogram + percentiles +
    latency by critical-path segment)."""

    request_chains = [c for c in run.chains if c.kind == "request"]
    total_hops = sum(c.hop_count for c in run.chains)
    requests = run.requests
    mean_hops = total_hops / requests if requests else 0.0
    out: List[str] = []
    out.append(
        f"-- causal chains ({len(request_chains)} request chains, "
        f"{total_hops} hops, {mean_hops:.3f} hops/request) --"
    )

    histogram: Dict[int, int] = {}
    for chain in request_chains:
        histogram[chain.hop_count] = histogram.get(chain.hop_count, 0) + 1
    if histogram:
        out.append(
            _table(
                ["hops", "chains", "share"],
                [
                    [
                        str(hops),
                        str(count),
                        f"{100.0 * count / len(request_chains):.1f}%",
                    ]
                    for hops, count in sorted(histogram.items())
                ],
            )
        )

    frozen = _frozen_lookup(run)
    paths = []
    for chain in request_chains:
        decomposition = critical_path(
            chain, frozen_at=frozen.get(chain.span_key)
        )
        if decomposition is not None:
            paths.append(decomposition)
    if not paths:
        return out

    lengths = sorted(p["path_hops"] for p in paths)
    out.append("")
    out.append(
        f"-- critical paths ({len(paths)} granted chains) "
        f"length p50 {percentile(lengths, 0.5):.0f} "
        f"p95 {percentile(lengths, 0.95):.0f} "
        f"max {lengths[-1]:.0f} --"
    )
    grand_total = sum(p["total"] for p in paths)
    rows = []
    for name in PATH_SEGMENTS:
        samples = sorted(p["segments"][name] for p in paths)
        seg_total = sum(samples)
        share = 100.0 * seg_total / grand_total if grand_total else 0.0
        rows.append(
            [
                name,
                f"{seg_total / len(samples):.4f}",
                f"{percentile(samples, 0.5):.4f}",
                f"{percentile(samples, 0.95):.4f}",
                f"{share:.1f}%",
            ]
        )
    rows.append(
        [
            "TOTAL",
            f"{grand_total / len(paths):.4f}",
            "",
            "",
            "100.0%",
        ]
    )
    out.append(_table(["segment", "mean", "p50", "p95", "share"], rows))
    return out


def _waterfall(chain: TraceChain) -> str:
    """Per-request waterfall: one row per hop, parent-linked."""

    rows: List[List[str]] = []
    for hop in chain.hops:
        transit = (
            f"{hop.recv_at - hop.sent_at:.4f}"
            if hop.sent_at is not None and hop.recv_at is not None
            else "-"
        )
        note = hop.kind if hop.kind != "send" else ""
        if hop.duplicates:
            note = (note + f" dup×{hop.duplicates}").strip()
        rows.append(
            [
                f"{hop.hop}",
                f"{hop.parent}",
                f"{hop.sender}->{hop.dest}",
                hop.label,
                f"{hop.sent_at - chain.issued_at:.4f}"
                if hop.sent_at is not None
                else "-",
                transit,
                note,
            ]
        )
    latency = (
        f"{chain.granted_at - chain.issued_at:.4f}s"
        if chain.granted_at is not None
        else "ungranted"
    )
    header = (
        f"trace {chain.trace_id} (origin {chain.origin}, "
        f"lock {chain.lock!r}, {latency})"
    )
    return header + "\n" + _table(
        ["hop", "par", "link", "message", "+sent", "transit", "note"], rows
    )


def _fault_rows(run: RunTrace) -> List[List[str]]:
    counter = run.counters.get("faults")
    if counter is None:
        return []
    return [
        [kind, str(count)]
        for kind, count in sorted(
            counter.totals().items(), key=lambda kv: -kv[1]
        )
    ]


def _meta_line(run: RunTrace) -> str:
    parts = []
    for key in ("protocol", "nodes", "ops", "seed", "requests", "sim_time"):
        value = run.meta.get(key)
        if value is not None:
            parts.append(f"{key}={value}")
    return "  ".join(parts)


def render_run(run: RunTrace, waterfalls: int = DEFAULT_WATERFALLS) -> str:
    """Render the full report for one run section.

    *waterfalls* bounds the number of per-request hop waterfalls shown
    (slowest granted chains first); 0 disables them.
    """

    out: List[str] = []
    out.append(f"== {run.label} ==")
    meta = _meta_line(run)
    if meta:
        out.append(meta)

    completed = [s for s in run.spans if s.granted_at is not None]
    out.append("")
    out.append(f"-- request phases ({len(completed)} completed spans) --")
    phase_rows = _phase_rows(run.spans)
    if phase_rows:
        out.append(
            _table(["segment", "n", "mean", "p50", "p95", "max"], phase_rows)
        )
    else:
        out.append("(no spans recorded)")

    message_rows = _message_rows(run)
    out.append("")
    out.append(f"-- message breakdown (per {run.requests} requests) --")
    if message_rows:
        out.append(
            _table(["message", "count", "msgs/req", "share"], message_rows)
        )
    else:
        out.append("(no messages recorded)")

    if run.chains:
        out.append("")
        out.extend(_chain_rows(run))
        granted = [
            chain
            for chain in run.chains
            if chain.kind == "request" and chain.granted_at is not None
        ]
        granted.sort(key=lambda c: c.granted_at - c.issued_at, reverse=True)
        for chain in granted[:waterfalls]:
            out.append("")
            out.append(_waterfall(chain))

    fault_rows = _fault_rows(run)
    if fault_rows:
        out.append("")
        out.append("-- fault / recovery activity --")
        out.append(_table(["event", "count"], fault_rows))

    queue = run.gauges.get("queue_depth")
    if queue is not None:
        out.append("")
        out.append(f"-- queue depth timeline (peak {queue.peak():.0f}) --")
        out.append(_table(["t", "mean", "max"], _timeline_rows(queue)))

    for name, title in (
        ("copyset_size", "copyset size"),
        ("freeze_size", "freeze occupancy"),
    ):
        gauge = run.gauges.get(name)
        if gauge is not None:
            out.append("")
            out.append(f"-- {title} (peak {gauge.peak():.0f}) --")
            out.append(_table(["t", "mean", "max"], _timeline_rows(gauge)))

    engine = run.counters.get("engine_events")
    if engine is not None:
        rows = engine.items()
        total = engine.total()
        span_seconds = (
            rows[-1][0] - rows[0][0] + engine.window if rows else 0.0
        )
        rate = total / span_seconds if span_seconds > 0 else 0.0
        out.append("")
        out.append(
            f"-- engine: {total} events over {span_seconds:.1f}s "
            f"({rate:.0f} events/s) --"
        )

    wire = run.counters.get("wire_bytes")
    latency = run.histograms.get("send_latency")
    if wire is not None or latency is not None:
        out.append("")
        sent = wire.total("sent") if wire is not None else 0
        received = wire.total("received") if wire is not None else 0
        line = f"-- wire: {sent} B sent, {received} B received"
        if latency is not None and latency.count:
            line += (
                f"; send latency mean {latency.mean * 1e6:.1f}us"
                f" p95 {latency.quantile(0.95) * 1e6:.1f}us"
            )
        out.append(line + " --")

    return "\n".join(out)


def render_report(
    runs: Sequence[RunTrace], waterfalls: int = DEFAULT_WATERFALLS
) -> str:
    """Render every run section of a trace file."""

    if not runs:
        return "(empty trace: no run sections found)"
    return "\n\n".join(render_run(run, waterfalls=waterfalls) for run in runs)


def report_payload(run: RunTrace) -> Dict[str, object]:
    """Machine-readable twin of :func:`render_run` (``report --json``).

    Same aggregates, as a JSON-friendly dict — nightly-chaos artifacts
    and dashboards consume this instead of scraping text tables.
    """

    completed = [s for s in run.spans if s.granted_at is not None]
    phases: Dict[str, object] = {}
    for label, start, end in SEGMENTS:
        samples = [w for s in run.spans if (w := s.wait(start, end)) is not None]
        if not samples:
            continue
        stats = summarize(samples)
        phases[label] = {
            "n": stats.count,
            "mean": stats.mean,
            "p50": stats.p50,
            "p95": stats.p95,
            "max": stats.maximum,
        }

    totals = run.message_totals()
    grand_total = sum(totals.values())
    requests = run.requests

    request_chains = [c for c in run.chains if c.kind == "request"]
    total_hops = sum(c.hop_count for c in run.chains)
    chains: Dict[str, object] = {
        "request_chains": len(request_chains),
        "total_hops": total_hops,
        "hops_per_request": total_hops / requests if requests else 0.0,
    }

    faults_counter = run.counters.get("faults")
    payload: Dict[str, object] = {
        "label": run.label,
        "meta": dict(run.meta),
        "requests": requests,
        "spans": {"total": len(run.spans), "completed": len(completed)},
        "phases": phases,
        "messages": {
            "by_type": dict(sorted(totals.items())),
            "total": grand_total,
            "per_request": grand_total / requests if requests else 0.0,
        },
        "chains": chains,
        "faults": (
            dict(sorted(faults_counter.totals().items()))
            if faults_counter is not None
            else {}
        ),
        "gauges": {
            name: {"peak": gauge.peak()}
            for name, gauge in run.gauges.items()
        },
    }
    wire = run.counters.get("wire_bytes")
    latency = run.histograms.get("send_latency")
    if wire is not None or latency is not None:
        payload["wire"] = {
            "bytes_sent": wire.total("sent") if wire is not None else 0,
            "bytes_received": (
                wire.total("received") if wire is not None else 0
            ),
            "send_latency_mean": latency.mean if latency is not None else None,
            "send_latency_p95": (
                latency.quantile(0.95) if latency is not None else None
            ),
        }
    return payload
