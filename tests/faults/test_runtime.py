"""Fault tolerance on the real-thread transports.

The acceptance bar: message drops AND duplicates must be survived on the
in-process threaded transport and over genuine TCP loopback sockets, not
just in the simulator.  Workloads here are small (wall-clock tests) but
every grant is audited by the compatibility monitor.
"""

from __future__ import annotations

import sys
import threading
import time

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
from repro.runtime.cluster import ThreadedHierarchicalCluster
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


class TestLeases:
    def test_a_grant_is_leased_and_mirrored_by_every_peer(self):
        """The threaded binding leases every grant, as the simulator's
        does: the holder's heartbeats advertise the lease and each peer
        mirrors it."""

        with ResilientThreadedCluster(
            3, monitor=CompatibilityMonitor()
        ) as cluster:
            cluster.client(1).acquire("x", LockMode.W, timeout=10.0)
            mirrors = [cluster.managers[n].leases.remote for n in (0, 2)]
            deadline = time.monotonic() + 1.0
            while any(table.get("x", 1) is None for table in mirrors):
                assert time.monotonic() < deadline, "lease never mirrored"
                time.sleep(0.01)
            own = cluster.cluster_view().nodes[1].recovery.leases["own"]
            assert [row[:3] for row in own] == [["x", "W", 1]]
            cluster.client(1).release("x", LockMode.W)


class TestClientGate:
    def test_two_threads_of_one_node_take_turns_on_one_lock(self):
        """The protocol allows one outstanding request per (node, lock):
        a second thread of the node waits on the client's per-lock gate
        instead of failing with ``LockUsageError``."""

        monitor = CompatibilityMonitor()
        with ResilientThreadedCluster(3, monitor=monitor) as cluster:
            holder, waiter = cluster.client(0), cluster.client(1)
            holder.acquire("x", LockMode.W, timeout=10.0)
            granted: list = []
            errors: list = []
            first_may_release = threading.Event()

            def take(name, release_when=None):
                try:
                    waiter.acquire("x", LockMode.W, timeout=20.0)
                    granted.append(name)
                    if release_when is not None:
                        assert release_when.wait(timeout=20.0)
                    waiter.release("x", LockMode.W)
                except Exception as exc:  # surfaced to the main thread
                    errors.append((name, exc))

            first = threading.Thread(
                target=take, args=("first", first_may_release), daemon=True
            )
            first.start()
            deadline = time.monotonic() + 10.0
            while cluster.lockspaces[1].existing("x") is None or (
                cluster.lockspaces[1].existing("x").pending_mode
                is not LockMode.W
            ):
                assert time.monotonic() < deadline, "request never issued"
                time.sleep(0.01)
            # The first request is pending behind node 0's W.
            second = threading.Thread(
                target=take, args=("second",), daemon=True
            )
            second.start()
            time.sleep(0.2)
            assert errors == []
            assert second.is_alive()
            holder.release("x", LockMode.W)
            deadline = time.monotonic() + 20.0
            while not granted and time.monotonic() < deadline:
                time.sleep(0.01)
            time.sleep(0.1)
            assert granted == ["first"]  # the second waits its turn
            first_may_release.set()
            first.join(timeout=30.0)
            second.join(timeout=30.0)
            assert errors == []
            assert granted == ["first", "second"]
            cluster.transport.drain()
            monitor.assert_all_released()


    @pytest.mark.parametrize(
        "cluster_class",
        [ThreadedHierarchicalCluster, ResilientThreadedCluster],
        ids=["bare", "resilient"],
    )
    def test_gate_under_thread_churn(self, cluster_class):
        """More threads than cores on two nodes, one lock, a short switch
        interval: every acquisition is granted, none overlaps a W."""

        monitor = CompatibilityMonitor()
        errors: list = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with cluster_class(3, monitor=monitor) as cluster:
                def work(node):
                    client = cluster.client(node)
                    try:
                        for _ in range(10):
                            client.acquire("x", LockMode.W, timeout=20.0)
                            client.release("x", LockMode.W)
                    except Exception as exc:  # surfaced to the main thread
                        errors.append((node, exc))

                threads = [
                    threading.Thread(target=work, args=(node,), daemon=True)
                    for node in (1, 1, 1, 2, 2, 2)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60.0)
                assert not any(t.is_alive() for t in threads), "wedged"
                cluster.transport.drain()
        finally:
            sys.setswitchinterval(interval)
        assert errors == []
        assert monitor.grants == 60
        monitor.assert_all_released()


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
    # One request frame arrives twice, so the channel answers with a
    # standalone ack: on a clean stream acks ride the heartbeats.
    copy_one = FaultPlan(
        rules=(
            FaultRule(
                action=DUPLICATE,
                message_types=frozenset({"request"}),
                max_count=1,
            ),
        ),
        seed=0,
    )
    with ResilientThreadedCluster(
        3,
        plan=copy_one,
        transport=make_transport(obs=observer),
        obs=observer,
    ) as cluster:
        cluster.client(1).acquire("lock", LockMode.W, timeout=10.0)
        cluster.client(1).release("lock", LockMode.W)
        cluster.client(2).acquire("lock", LockMode.R, timeout=10.0)
        cluster.client(2).release("lock", LockMode.R)
        # The duplicate's standalone ack may still be unsent when the
        # last release returns; shutting down now would lose it.
        deadline = time.monotonic() + 5.0
        while (
            "session-ack" not in observer.messages.totals()
            and time.monotonic() < deadline
        ):
            time.sleep(0.01)
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
