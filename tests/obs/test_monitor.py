"""The Prometheus/JSON monitor endpoint and the ``repro monitor`` CLI."""

from __future__ import annotations

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.__main__ import main
from repro.core.modes import LockMode
from repro.obs.collect import RunObserver
from repro.obs.live import (
    AuditReport,
    ClusterView,
    LiveMonitor,
    LockSnapshot,
    NodeSnapshot,
    audit_view,
)
from repro.obs.monitor import (
    MonitorServer,
    render_health_table,
    render_prometheus,
)
from repro.runtime.cluster import ThreadedHierarchicalCluster

TIMEOUT = 30.0


def _synthetic():
    view = ClusterView(
        protocol="hierarchical",
        captured_at=1.5,
        nodes=(
            NodeSnapshot(
                node=0,
                locks=(
                    LockSnapshot("db", believes_token=True, parent=None),
                ),
            ),
            NodeSnapshot(node=1, alive=False),
        ),
    )
    return view, audit_view(view)


class TestPrometheusRendering:
    def test_view_metrics_present(self):
        view, report = _synthetic()
        text = render_prometheus(view, report)
        assert 'repro_cluster_nodes{state="alive"} 1' in text
        assert 'repro_cluster_nodes{state="crashed"} 1' in text
        assert 'repro_token_believers{lock="db"} 1' in text
        assert "repro_audit_ok 1" in text
        assert "repro_snapshot_timestamp_seconds 1.5" in text
        assert text.endswith("\n")

    def test_audit_failure_flips_gauge(self):
        view, _ = _synthetic()
        split = ClusterView(
            protocol=view.protocol,
            captured_at=view.captured_at,
            nodes=view.nodes
            + (
                NodeSnapshot(
                    node=2,
                    locks=(
                        LockSnapshot(
                            "db", believes_token=True, parent=None
                        ),
                    ),
                ),
            ),
        )
        report = audit_view(split)
        text = render_prometheus(split, report)
        assert "repro_audit_ok 0" in text
        assert 'repro_audit_findings{severity="violation"} 1' in text

    def test_observer_series_exported(self):
        observer = RunObserver()
        observer.message(0, 1, "request")
        observer.message(0, 1, "grant")
        view, report = _synthetic()
        text = render_prometheus(view, report, observer=observer)
        assert (
            'repro_messages_total{label="request",plane="protocol"} 1' in text
        )
        assert 'repro_messages_total{label="grant",plane="protocol"} 1' in text

    def test_health_table_mentions_every_node(self):
        view, report = _synthetic()
        table = render_health_table(view, report)
        assert "protocol=hierarchical" in table
        assert "DOWN" in table  # the crashed node
        assert "HEALTHY" in table


@pytest.fixture(scope="module")
def served():
    """A threaded cluster behind a live MonitorServer, post-workload."""

    observer = RunObserver()
    with ThreadedHierarchicalCluster(3) as cluster:
        for lockspace in cluster.lockspaces.values():
            lockspace.obs = observer
        cluster.transport.obs = observer
        cluster.transport.tracer = observer.tracer

        def worker(node: int) -> None:
            client = cluster.client(node)
            for step in range(3):
                mode = LockMode.W if (node + step) % 2 else LockMode.R
                client.acquire("t", mode, timeout=TIMEOUT)
                client.release("t", mode)

        threads = [
            threading.Thread(target=worker, args=(n,)) for n in range(3)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        cluster.transport.drain()
        monitor = LiveMonitor(cluster.cluster_view, observer=observer)
        with MonitorServer(monitor, observer=observer) as server:
            yield server


class TestMonitorServer:
    def test_cluster_endpoint_serves_view_and_audit(self, served):
        with urllib.request.urlopen(
            f"{served.url}/cluster", timeout=10
        ) as resp:
            assert resp.status == 200
            assert resp.headers["Content-Type"].startswith(
                "application/json"
            )
            payload = json.loads(resp.read().decode("utf-8"))
        view = ClusterView.from_payload(payload["view"])
        report = AuditReport.from_payload(payload["audit"])
        assert view.protocol == "hierarchical"
        assert len(view.nodes) == 3
        assert view.token_believers("t")
        assert report.ok, report.verdict()

    def test_metrics_endpoint_speaks_prometheus(self, served):
        with urllib.request.urlopen(
            f"{served.url}/metrics", timeout=10
        ) as resp:
            assert resp.status == 200
            assert resp.headers["Content-Type"].startswith(
                "text/plain; version=0.0.4"
            )
            text = resp.read().decode("utf-8")
        assert "# TYPE repro_audit_ok gauge" in text
        assert "repro_audit_ok 1" in text
        assert "repro_messages_total" in text  # observer counters flow in

    def test_healthz_and_404(self, served):
        assert (
            urllib.request.urlopen(
                f"{served.url}/healthz", timeout=10
            ).status
            == 200
        )
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(f"{served.url}/nope", timeout=10)
        assert err.value.code == 404


class TestThreadedClusterAudit:
    def test_quiescent_threaded_cluster_audits_healthy(self):
        with ThreadedHierarchicalCluster(2) as cluster:
            client = cluster.client(1)
            client.acquire("x", LockMode.W, timeout=TIMEOUT)
            client.release("x", LockMode.W)
            cluster.transport.drain()
            report = audit_view(cluster.cluster_view(), quiescent=True)
        assert report.ok, report.verdict()


class TestMonitorCli:
    def test_self_test_passes(self, capsys):
        assert main(["monitor", "--self-test", "--nodes", "2"]) == 0
        out = capsys.readouterr().out
        assert "self-test: PASS" in out
        assert "audit:" in out

    def test_url_mode_polls_once(self, served, capsys):
        assert main(["monitor", "--url", served.url, "--once"]) == 0
        out = capsys.readouterr().out
        assert "protocol=hierarchical" in out
        assert "HEALTHY" in out

    def test_unreachable_endpoint_is_a_diagnostic(self, capsys):
        rc = main([
            "monitor", "--url", "http://127.0.0.1:1", "--once",
        ])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.err.startswith("error:")

    def test_url_required_without_self_test(self):
        with pytest.raises(SystemExit):
            main(["monitor"])
