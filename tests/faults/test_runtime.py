"""Fault tolerance on the real-thread transports.

The acceptance bar: message drops AND duplicates must be survived on the
in-process threaded transport and over genuine TCP loopback sockets, not
just in the simulator.  Workloads here are small (wall-clock tests) but
every grant is audited by the compatibility monitor.
"""

from __future__ import annotations

import threading

import pytest

from repro.core.modes import LockMode
from repro.errors import SimulationError
from repro.faults.plan import DROP, DUPLICATE, FaultPlan, FaultRule
from repro.faults.runtime import (
    FAST_RECOVERY,
    FaultyTransport,
    ResilientThreadedCluster,
)
from repro.obs.collect import RunObserver
from repro.runtime.tcp import TcpTransport
from repro.runtime.transport import ThreadedTransport
from repro.verification.invariants import CompatibilityMonitor

#: Light, bounded chaos: drops and duplicates stop after max_count, so
#: the run's tail is clean and convergence is guaranteed.
LOSSY_PLAN = FaultPlan(
    rules=(
        FaultRule(action=DROP, probability=0.10, max_count=15),
        FaultRule(action=DUPLICATE, probability=0.15, max_count=15),
    ),
    seed=11,
    name="test-lossy",
)


def _hammer(cluster, node: int, ops: int, errors: list) -> None:
    client = cluster.client(node)
    try:
        for i in range(ops):
            mode = LockMode.W if (node + i) % 4 == 0 else LockMode.R
            client.acquire("lock", mode, timeout=30.0)
            client.release("lock", mode)
    except Exception as exc:  # surfaced to the main thread
        errors.append((node, exc))


def _run_cluster(cluster, ops: int = 8):
    errors: list = []
    threads = [
        threading.Thread(
            target=_hammer, args=(cluster, node, ops, errors), daemon=True
        )
        for node in range(cluster.num_nodes)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60.0)
    assert not any(t.is_alive() for t in threads), "workload wedged"
    assert errors == []


class TestThreadedTransport:
    def test_drops_and_duplicates_survived(self):
        monitor = CompatibilityMonitor()
        with ResilientThreadedCluster(
            3, plan=LOSSY_PLAN, monitor=monitor
        ) as cluster:
            _run_cluster(cluster)
            injector = cluster.transport.injector
            assert injector.dropped > 0 or injector.duplicated > 0
            assert monitor.grants == 3 * 8

    def test_crash_and_restart(self):
        with ResilientThreadedCluster(3, plan=FaultPlan()) as cluster:
            cluster.client(1).acquire("lock", LockMode.R, timeout=10.0)
            cluster.client(1).release("lock", LockMode.R)
            cluster.crash(2)
            with pytest.raises(SimulationError, match="crashed"):
                cluster.client(2).acquire("lock", LockMode.R)
            # Survivors keep working while node 2 is down.
            cluster.client(0).acquire("lock", LockMode.W, timeout=10.0)
            cluster.client(0).release("lock", LockMode.W)
            cluster.restart(2)
            cluster.client(2).acquire("lock", LockMode.R, timeout=20.0)
            cluster.client(2).release("lock", LockMode.R)
            assert cluster.managers[2].boot == 1


class TestTcpTransport:
    def test_drops_and_duplicates_survived_over_tcp(self):
        monitor = CompatibilityMonitor()
        with ResilientThreadedCluster(
            3,
            plan=LOSSY_PLAN,
            transport=TcpTransport(),
            monitor=monitor,
        ) as cluster:
            _run_cluster(cluster, ops=6)
            injector = cluster.transport.injector
            assert injector.dropped > 0 or injector.duplicated > 0
            assert monitor.grants == 3 * 6


@pytest.mark.parametrize("make_transport", [ThreadedTransport, TcpTransport])
def test_observed_messages_carry_protocol_labels(make_transport):
    """Both wall-clock transports book what a session frame carries, as
    the simulator binding does — not ``SessionMessage`` for everything."""

    observer = RunObserver()
    with ResilientThreadedCluster(
        3, transport=make_transport(obs=observer), obs=observer
    ) as cluster:
        cluster.client(1).acquire("lock", LockMode.W, timeout=10.0)
        cluster.client(1).release("lock", LockMode.W)
        cluster.client(2).acquire("lock", LockMode.R, timeout=10.0)
        cluster.client(2).release("lock", LockMode.R)
    totals = observer.messages.totals()
    assert {"request", "token", "heartbeat", "session-ack"} <= set(totals)
    assert "session" not in totals
    assert not any(label.endswith("Message") for label in totals)


class TestFaultyTransport:
    def test_empty_plan_has_no_injector(self):
        transport = FaultyTransport(ThreadedTransport(), FaultPlan())
        assert transport.injector is None

    def test_crash_gate_blocks_both_directions(self):
        from repro.core.messages import Envelope
        from repro.faults.messages import HeartbeatMessage

        transport = FaultyTransport(ThreadedTransport(), None)
        received: list = []
        transport.register(0, lambda m: received.append(m) or [])
        transport.register(1, lambda m: [])
        transport.start()
        try:
            beat = HeartbeatMessage(lock_id="", sender=1)
            transport.crash(0)
            assert transport.is_crashed(0)
            # Into the crashed node: silently swallowed by the gate.
            transport.send(1, [Envelope(0, beat)])
            # Out of the crashed node: dropped at the source.
            transport.send(0, [Envelope(1, beat)])
            transport.drain()
            assert received == []
            transport.restart(0)
            assert not transport.is_crashed(0)
            transport.send(1, [Envelope(0, beat)])
            transport.drain()
            assert received == [beat]
        finally:
            transport.stop()
