"""Exposition of live cluster health: Prometheus metrics + JSON views.

:class:`MonitorServer` runs a stdlib :class:`~http.server.ThreadingHTTPServer`
on a daemon thread next to a threaded/TCP cluster and serves:

* ``GET /metrics``   — Prometheus text format: the run observer's
  counters/gauges/histograms plus view-derived cluster gauges (node
  liveness, token believers, queue occupancy) and the audit verdict.
* ``GET /cluster``   — ``{"view": ClusterView, "audit": AuditReport}``
  as JSON, the machine-readable twin of the health table.
* ``GET /healthz``   — ``200 ok`` iff the latest audit found no
  violations, ``503`` otherwise (load-balancer / CI friendly).

Every request triggers one fresh :meth:`~repro.obs.live.LiveMonitor.poll`
— the server holds no cache, so what you scrape is what the cluster
believes right now.

:func:`render_health_table` is the human rendering the
``python -m repro monitor`` CLI refreshes in a loop.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import List, Optional, Tuple

from ..core.messages import LABEL_PLANES
from .live import AuditReport, ClusterView, LiveMonitor, NodeSnapshot
from .report import _table


# ---------------------------------------------------------------------------
# Prometheus text exposition.
# ---------------------------------------------------------------------------


def _escape_label(value: str) -> str:
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def _sample(name: str, value, labels: Optional[dict] = None) -> str:
    if labels:
        rendered = ",".join(
            f'{key}="{_escape_label(val)}"' for key, val in labels.items()
        )
        return f"{name}{{{rendered}}} {value}"
    return f"{name} {value}"


def _counter_labels(counter: str, label: str) -> dict:
    if counter == "messages":
        # By type, and every type declared its plane beside its label.
        return {"label": label, "plane": LABEL_PLANES.get(label, "")}
    return {"label": label}


def _recovering(view: ClusterView) -> List[NodeSnapshot]:
    """Alive nodes running behind a recovery manager."""

    return [
        node
        for node in view.nodes
        if node.alive and node.recovery is not None
    ]


def _by_node(node: NodeSnapshot, **labels: str) -> dict:
    return {"node": str(node.node), **labels}


#: The view- and audit-derived families, in exposition order: (name,
#: kind, help, ``(view, report) -> [(value, labels), ...]``).  A family
#: with no samples is left out of the scrape.
_FAMILIES = (
    ("repro_cluster_nodes", "gauge", "Cluster membership by liveness.",
     lambda view, report: [
         (len(view.alive_nodes()), {"state": "alive"}),
         (len(view.nodes) - len(view.alive_nodes()), {"state": "crashed"}),
     ]),
    ("repro_token_believers", "gauge",
     "Alive nodes believing they hold the token, per lock (1 = healthy).",
     lambda view, report: [
         (len(view.token_believers(lock_id)), {"lock": str(lock_id)})
         for lock_id in view.lock_ids()
     ]),
    ("repro_queue_entries", "gauge", "Locally queued requests per node.",
     lambda view, report: [
         (sum(len(snap.queue) for snap in node.locks), _by_node(node))
         for node in view.nodes
         if node.alive
     ]),
    ("repro_channel_backlog", "gauge",
     "Session-channel frames awaiting acknowledgement, per node.",
     lambda view, report: [
         (node.recovery.channel_backlog, _by_node(node))
         for node in _recovering(view)
     ]),
    ("repro_leases_active", "gauge",
     "Active leases per node: own = this node's granted holds, "
     "remote = leases mirrored from peers' heartbeats.",
     lambda view, report: [
         (len(node.recovery.leases.get(table, ())),
          _by_node(node, table=table))
         for table in ("own", "remote")
         for node in _recovering(view)
     ]),
    ("repro_lease_fenced", "gauge",
     "1 iff the node lease-fenced itself (quorum-silent past expiry).",
     lambda view, report: [
         (1 if node.recovery.leases.get("fenced") else 0, _by_node(node))
         for node in _recovering(view)
     ]),
    ("repro_view_epoch", "gauge",
     "Installed membership view epoch per node (skew = propagating "
     "view change; persistent skew = partitioned member).",
     lambda view, report: [
         (node.recovery.view_epoch, _by_node(node))
         for node in _recovering(view)
     ]),
    ("repro_view_members", "gauge",
     "Member count of the installed view per node.",
     lambda view, report: [
         (len(node.recovery.view_members), _by_node(node))
         for node in _recovering(view)
     ]),
    ("repro_audit_ok", "gauge",
     "1 iff the latest online invariant audit found no violations.",
     lambda view, report: [(1 if report.ok else 0, None)]),
    ("repro_audit_findings", "gauge",
     "Findings of the latest online invariant audit, by severity.",
     lambda view, report: [
         (len(report.violations()), {"severity": "violation"}),
         (len(report.warnings()), {"severity": "warning"}),
     ]),
    ("repro_snapshot_timestamp_seconds", "gauge",
     "Capture time of the exposed cluster view (cluster timebase).",
     lambda view, report: [(view.captured_at, None)]),
)


def render_prometheus(
    view: ClusterView,
    report: AuditReport,
    observer=None,
) -> str:
    """Render one scrape in Prometheus text exposition format.

    Counter/gauge/histogram series come from the optional run
    *observer* (the same instruments ``--trace-out`` exports); the
    cluster-shape gauges and the audit verdict come from *view* and
    *report* (:data:`_FAMILIES`).
    """

    lines: List[str] = []

    def emit(name: str, kind: str, help_text: str, samples: list) -> None:
        if not samples:
            return
        lines.append(f"# HELP {name} {help_text}")
        lines.append(f"# TYPE {name} {kind}")
        lines.extend(_sample(name, value, labels) for value, labels in samples)

    if observer is not None:
        for cname, counter in observer.counters().items():
            emit(
                f"repro_{cname}_total",
                "counter",
                f"Cumulative {cname.replace('_', ' ')} observed this run.",
                [
                    (total, _counter_labels(cname, label))
                    for label, total in counter.totals().items()
                ],
            )
        for gname, gauge in observer.gauges().items():
            emit(
                f"repro_{gname}",
                "gauge",
                "Time-weighted mean of the cluster total "
                f"{gname.replace('_', ' ')}, latest window.",
                [(gauge.timeline()[-1][1], None)],
            )
            emit(
                f"repro_{gname}_peak",
                "gauge",
                f"Largest cluster total {gname.replace('_', ' ')} this run.",
                [(gauge.peak(), None)],
            )
        for hname, histogram in observer.histograms().items():
            base = f"repro_{hname}_seconds"
            emit(
                base,
                "summary",
                f"Distribution of {hname.replace('_', ' ')} (seconds).",
                [
                    (histogram.quantile(q), {"quantile": str(q)})
                    for q in (0.5, 0.9, 0.99)
                ],
            )
            lines.append(_sample(f"{base}_sum", histogram.total))
            lines.append(_sample(f"{base}_count", histogram.count))

    for name, kind, help_text, samples in _FAMILIES:
        emit(name, kind, help_text, samples(view, report))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Human rendering (the `repro monitor` health table).
# ---------------------------------------------------------------------------


def render_health_table(
    view: ClusterView,
    report: AuditReport,
    flight: Optional[dict] = None,
) -> str:
    """Render one poll as the monitor CLI's health table + verdict.

    *flight*, when given, maps node ids to flight-recorder stats (the
    ``/flightrec`` endpoint's payload) and adds a last-seq column.
    """

    def flight_cell(node_id) -> str:
        if flight is None:
            return "-"
        stats = flight.get(str(node_id), flight.get(node_id))
        if not stats:
            return "-"
        cell = f"seq={stats.get('last_seq', 0)}"
        if stats.get("dropped"):
            cell += f" dropped={stats['dropped']}"
        return cell

    rows: List[List[str]] = []
    for node in view.nodes:
        if not node.alive:
            row = [str(node.node), "DOWN", "-", "-", "-", "-", "-", "-"]
            if flight is not None:
                row.append(flight_cell(node.node))
            rows.append(row)
            continue
        view_cell = "-"
        if node.recovery is not None:
            view_cell = (
                f"e{node.recovery.view_epoch}"
                f"/{len(node.recovery.view_members)}n"
            )
        tokens = sorted(
            str(snap.lock) for snap in node.locks if snap.believes_token
        )
        held = sorted(
            f"{snap.lock}:{mode}x{count}"
            for snap in node.locks
            for mode, count in snap.held
        )
        queued = sum(len(snap.queue) for snap in node.locks)
        frozen = sum(len(snap.frozen) for snap in node.locks)
        recovery = "-"
        if node.recovery is not None:
            suspected = ",".join(str(p) for p in node.recovery.suspected)
            recovery = (
                f"boot={node.recovery.boot} "
                f"backlog={node.recovery.channel_backlog}"
            )
            if suspected:
                recovery += f" suspects=[{suspected}]"
            durability = node.recovery.durability
            if durability is not None:
                recovery += (
                    f" wal={durability.get('appends', 0)}a"
                    f"/{durability.get('compactions', 0)}c"
                )
            if node.recovery.custody_pending:
                pending = ",".join(
                    str(lock) for lock in node.recovery.custody_pending
                )
                recovery += f" fencing=[{pending}]"
            leases = node.recovery.leases
            recovery += (
                f" leases={len(leases.get('own', ()))}o"
                f"/{len(leases.get('remote', ()))}r"
            )
            if leases.get("revoked"):
                recovery += f" revoked={leases['revoked']}"
            if leases.get("reclaimed"):
                recovery += f" reclaimed={leases['reclaimed']}"
            if leases.get("fenced"):
                recovery += " FENCED"
        row = [
            str(node.node),
            "up",
            view_cell,
            ",".join(tokens) if tokens else "-",
            ",".join(held) if held else "-",
            str(queued),
            str(frozen),
            recovery,
        ]
        if flight is not None:
            row.append(flight_cell(node.node))
        rows.append(row)
    headers = ["node", "state", "view", "tokens", "held", "queued",
               "frozen", "recovery"]
    if flight is not None:
        headers.append("flight")
    lines = [
        f"cluster: protocol={view.protocol} t={view.captured_at:.3f} "
        f"nodes={len(view.nodes)} locks={len(view.lock_ids())}",
        _table(headers, rows, align=str.ljust),
        f"audit: {report.verdict()}",
    ]
    for finding in report.findings:
        lines.append(f"  {finding}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# The background HTTP endpoint.
# ---------------------------------------------------------------------------


class MonitorServer:
    """Serves live metrics and cluster views for one :class:`LiveMonitor`.

    Binds ``host:port`` (port 0 = ephemeral; read :attr:`port` after
    construction), answers from daemon threads, and never touches the
    cluster except through the monitor's poll — which is a pure read.
    """

    def __init__(
        self,
        monitor: LiveMonitor,
        observer=None,
        host: str = "127.0.0.1",
        port: int = 0,
        flight=None,
    ) -> None:
        self._monitor = monitor
        self._observer = observer
        #: Optional node→FlightRecorder mapping served at ``/flightrec``.
        self._flight = flight
        self._thread: Optional[threading.Thread] = None

        server = self

        class Handler(BaseHTTPRequestHandler):
            def do_GET(self) -> None:  # noqa: N802 - http.server API
                try:
                    status, content_type, body = server._respond(self.path)
                except Exception as exc:  # pragma: no cover - last resort
                    status, content_type = 500, "text/plain; charset=utf-8"
                    body = f"internal error: {exc}\n".encode()
                self.send_response(status)
                self.send_header("Content-Type", content_type)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, *args) -> None:  # Silence stderr chatter.
                pass

        self._httpd = ThreadingHTTPServer((host, port), Handler)
        self._httpd.daemon_threads = True

    # -- request handling --------------------------------------------------

    def _respond(self, path: str) -> Tuple[int, str, bytes]:
        path = path.split("?", 1)[0]
        if path == "/metrics":
            view, report = self._monitor.poll()
            body = render_prometheus(view, report, self._observer)
            return 200, "text/plain; version=0.0.4; charset=utf-8", body.encode()
        if path == "/cluster":
            view, report = self._monitor.poll()
            payload = {"view": view.to_payload(), "audit": report.to_payload()}
            return (
                200,
                "application/json; charset=utf-8",
                (json.dumps(payload, indent=2) + "\n").encode(),
            )
        if path == "/healthz":
            _view, report = self._monitor.poll()
            if report.ok:
                return 200, "text/plain; charset=utf-8", b"ok\n"
            return 503, "text/plain; charset=utf-8", b"unhealthy\n"
        if path == "/flightrec":
            if self._flight is None:
                return (
                    404,
                    "text/plain; charset=utf-8",
                    b"flight recording not enabled\n",
                )
            payload = {
                str(node): recorder.stats()
                for node, recorder in sorted(self._flight.items())
            }
            return (
                200,
                "application/json; charset=utf-8",
                (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode(),
            )
        return 404, "text/plain; charset=utf-8", b"not found\n"

    # -- lifecycle ---------------------------------------------------------

    @property
    def port(self) -> int:
        """The bound TCP port."""

        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        """Base URL of the endpoint."""

        host, port = self._httpd.server_address[:2]
        return f"http://{host}:{port}"

    def start(self) -> None:
        """Serve from a daemon thread."""

        if self._thread is not None:
            return
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="repro-monitor-http",
            daemon=True,
        )
        self._thread.start()

    def stop(self) -> None:
        """Stop serving and join the thread."""

        self._httpd.shutdown()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        self._httpd.server_close()

    def __enter__(self) -> "MonitorServer":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()
