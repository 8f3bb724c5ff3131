"""Tests for the simulated clusters (hierarchical and Naimi)."""

from __future__ import annotations

import pytest

from repro.core.modes import LockMode
from repro.errors import ConfigurationError, InvariantViolation
from repro.sim.cluster import SimHierarchicalCluster, SimNaimiCluster
from repro.sim.engine import Process, Simulator, Timeout, run_processes
from repro.sim.rng import Fixed
from repro.verification.invariants import (
    CompatibilityMonitor,
    FifoObserver,
    MonitorSet,
)


class TestHierarchicalCluster:
    def test_needs_at_least_one_node(self):
        with pytest.raises(ConfigurationError):
            SimHierarchicalCluster(0)

    def test_single_acquire_release_cycle(self):
        sim = Simulator()
        monitor = CompatibilityMonitor()
        cluster = SimHierarchicalCluster(3, sim=sim, monitor=monitor)
        client = cluster.client(1)

        def body():
            yield client.acquire("t", LockMode.W)
            yield Timeout(sim, 0.01)
            client.release("t", LockMode.W)

        run_processes(sim, [body()])
        monitor.assert_all_released()
        cluster.assert_quiescent_invariants()
        assert monitor.grants == 1

    def test_concurrent_readers_share(self):
        sim = Simulator()
        monitor = CompatibilityMonitor()
        cluster = SimHierarchicalCluster(4, sim=sim, monitor=monitor)

        def reader(node):
            client = cluster.client(node)
            yield client.acquire("t", LockMode.R)
            yield Timeout(sim, 0.5)
            client.release("t", LockMode.R)

        run_processes(sim, [reader(n) for n in range(4)])
        # All four readers overlapped at some point.
        assert monitor.max_concurrency["t"] >= 2
        cluster.assert_quiescent_invariants()

    def test_writers_serialize(self):
        sim = Simulator()
        monitor = CompatibilityMonitor()
        cluster = SimHierarchicalCluster(3, sim=sim, monitor=monitor)

        def writer(node):
            client = cluster.client(node)
            yield client.acquire("t", LockMode.W)
            yield Timeout(sim, 0.05)
            client.release("t", LockMode.W)

        run_processes(sim, [writer(n) for n in range(3)])
        assert monitor.max_concurrency["t"] == 1
        assert monitor.grants == 3

    def test_upgrade_records_release_of_u(self):
        sim = Simulator()
        monitor = CompatibilityMonitor()
        cluster = SimHierarchicalCluster(2, sim=sim, monitor=monitor)
        client = cluster.client(1)

        def body():
            yield client.acquire("t", LockMode.U)
            yield client.upgrade("t")
            client.release("t", LockMode.W)

        run_processes(sim, [body()])
        monitor.assert_all_released()

    def test_metrics_count_wire_messages_by_type(self):
        sim = Simulator()
        cluster = SimHierarchicalCluster(3, sim=sim)

        def body(node):
            client = cluster.client(node)
            yield client.acquire("t", LockMode.R)
            client.release("t", LockMode.R)

        run_processes(sim, [body(n) for n in (1, 2)])
        counts = cluster.network.messages_by_label
        assert sum(counts.values()) == cluster.network.messages_sent > 0
        assert set(counts) <= {
            "request", "grant", "token", "release", "freeze"
        }

    def test_quiescence_check_catches_leaked_hold(self):
        sim = Simulator()
        cluster = SimHierarchicalCluster(2, sim=sim, latency=Fixed(0.1))
        client = cluster.client(1)

        def body():
            yield client.acquire("t", LockMode.W)
            # never released

        Process(sim, body())
        # Stopped while the request is in flight, the leak is still a
        # pending request, which is not quiescent.
        sim.run(until=0.05)
        with pytest.raises(InvariantViolation, match="still pending"):
            cluster.assert_quiescent_invariants()
        # Once granted, a leaked hold with nothing pending is
        # structurally sound.
        sim.run()
        cluster.assert_quiescent_invariants()

    def test_fifo_observer_sees_grant_order(self):
        sim = Simulator()
        fifo = FifoObserver()
        cluster = SimHierarchicalCluster(
            3, sim=sim, monitor=MonitorSet([fifo])
        )

        def body(node, delay):
            client = cluster.client(node)
            yield Timeout(sim, delay)
            yield client.acquire("t", LockMode.W)
            client.release("t", LockMode.W)

        run_processes(sim, [body(1, 0.0), body(2, 2.0)])
        order = [event.node for event in fifo.grants_for("t")]
        assert order == [1, 2]


class TestNaimiCluster:
    def test_mutual_exclusion_enforced(self):
        sim = Simulator()
        monitor = CompatibilityMonitor()
        cluster = SimNaimiCluster(4, sim=sim, monitor=monitor)

        def body(node):
            client = cluster.client(node)
            yield client.acquire("global")
            yield Timeout(sim, 0.02)
            client.release("global")

        run_processes(sim, [body(n) for n in range(4)])
        monitor.assert_all_released()
        cluster.assert_quiescent_invariants()
        assert monitor.grants == 4

    def test_metrics_labels_are_naimi_types(self):
        sim = Simulator()
        cluster = SimNaimiCluster(3, sim=sim)

        def body(node):
            client = cluster.client(node)
            yield client.acquire("g")
            client.release("g")

        run_processes(sim, [body(1), body(2)])
        assert set(cluster.network.messages_by_label) <= {"request", "token"}

    def test_multiple_independent_locks(self):
        sim = Simulator()
        monitor = CompatibilityMonitor()
        cluster = SimNaimiCluster(3, sim=sim, monitor=monitor)

        def body(node, lock):
            client = cluster.client(node)
            yield client.acquire(lock)
            yield Timeout(sim, 0.5)
            client.release(lock)

        run_processes(sim, [body(1, "a"), body(2, "b")])
        # Disjoint locks proceed in parallel within the same virtual time.
        assert sim.now < 1.5
        cluster.assert_quiescent_invariants()
