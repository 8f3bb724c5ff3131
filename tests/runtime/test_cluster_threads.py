"""Tests for the threaded cluster: the protocol under real concurrency."""

from __future__ import annotations

import threading
import time

import pytest

from repro.core.automaton import ProtocolOptions
from repro.core.modes import LockMode, intention_mode
from repro.errors import SimulationError
from repro.runtime.cluster import ThreadedHierarchicalCluster
from repro.runtime.tcp import TcpTransport
from repro.sim.rng import Fixed
from repro.verification.invariants import CompatibilityMonitor

TIMEOUT = 20.0


class TestBlockingClient:
    def test_acquire_release_round_trip(self):
        monitor = CompatibilityMonitor()
        with ThreadedHierarchicalCluster(2, monitor=monitor) as cluster:
            client = cluster.client(1)
            client.acquire("t", LockMode.W, timeout=TIMEOUT)
            client.release("t", LockMode.W)
            monitor.assert_all_released()

    def test_writers_from_all_nodes_serialize(self):
        monitor = CompatibilityMonitor()
        with ThreadedHierarchicalCluster(4, monitor=monitor) as cluster:
            counter = {"value": 0, "max_seen": 0}
            gate = threading.Lock()

            def writer(node):
                client = cluster.client(node)
                for _ in range(10):
                    client.acquire("t", LockMode.W, timeout=TIMEOUT)
                    with gate:
                        counter["value"] += 1
                        counter["max_seen"] = max(
                            counter["max_seen"], counter["value"]
                        )
                    with gate:
                        counter["value"] -= 1
                    client.release("t", LockMode.W)

            threads = [
                threading.Thread(target=writer, args=(n,)) for n in range(4)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert counter["max_seen"] == 1
            monitor.assert_all_released()

    def test_readers_overlap_writers_exclude(self):
        monitor = CompatibilityMonitor()
        with ThreadedHierarchicalCluster(4, monitor=monitor) as cluster:
            barrier = threading.Barrier(3, timeout=TIMEOUT)

            def reader(node):
                client = cluster.client(node)
                client.acquire("t", LockMode.R, timeout=TIMEOUT)
                barrier.wait()  # all three readers inside simultaneously
                client.release("t", LockMode.R)

            threads = [
                threading.Thread(target=reader, args=(n,)) for n in (1, 2, 3)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert monitor.max_concurrency["t"] == 3

    def test_hierarchical_entry_writes_proceed_in_parallel(self):
        monitor = CompatibilityMonitor()
        with ThreadedHierarchicalCluster(3, monitor=monitor) as cluster:
            barrier = threading.Barrier(2, timeout=TIMEOUT)

            def entry_writer(node, entry):
                client = cluster.client(node)
                client.acquire("db/t", LockMode.IW, timeout=TIMEOUT)
                client.acquire(f"db/t/{entry}", LockMode.W, timeout=TIMEOUT)
                barrier.wait()  # both writers inside at once
                client.release(f"db/t/{entry}", LockMode.W)
                client.release("db/t", LockMode.IW)

            threads = [
                threading.Thread(target=entry_writer, args=(1, 0)),
                threading.Thread(target=entry_writer, args=(2, 1)),
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            monitor.assert_all_released()

    def test_upgrade_under_contention(self):
        monitor = CompatibilityMonitor()
        with ThreadedHierarchicalCluster(3, monitor=monitor) as cluster:
            client = cluster.client(1)
            client.acquire("t", LockMode.U, timeout=TIMEOUT)
            reader_done = threading.Event()

            def reader():
                other = cluster.client(2)
                other.acquire("t", LockMode.R, timeout=TIMEOUT)
                other.release("t", LockMode.R)
                reader_done.set()

            thread = threading.Thread(target=reader)
            thread.start()
            assert reader_done.wait(timeout=TIMEOUT)  # R coexists with U
            client.upgrade("t", timeout=TIMEOUT)
            client.release("t", LockMode.W)
            thread.join(timeout=10)
            monitor.assert_all_released()

    def test_attempt_succeeds_only_locally(self):
        with ThreadedHierarchicalCluster(2) as cluster:
            token_client = cluster.client(0)   # node 0 holds the token
            remote_client = cluster.client(1)
            assert token_client.attempt("t", LockMode.R)       # token-local
            assert not remote_client.attempt("t", LockMode.R)  # no ownership
            token_client.release("t", LockMode.R)

    def test_attempt_after_ownership_established(self):
        with ThreadedHierarchicalCluster(2) as cluster:
            client = cluster.client(1)
            client.acquire("t", LockMode.R, timeout=TIMEOUT)
            # Owning R, an IR attempt is locally grantable (Rule 2).
            assert client.attempt("t", LockMode.IR)
            client.release("t", LockMode.IR)
            client.release("t", LockMode.R)

    def test_attempt_never_sends_a_request(self):
        # With Rule 2's local path switched off nothing is grantable
        # away from the token, so the attempt must fail without asking:
        # a request sent anyway is granted later to no caller.
        options = ProtocolOptions(local_reentry=False)
        with ThreadedHierarchicalCluster(
            3, options=options, delay=Fixed(0.05)
        ) as cluster:
            for node in (1, 2):
                cluster.client(node).acquire("x", LockMode.R, timeout=TIMEOUT)
            automaton = cluster.lockspaces[2].automaton("x")
            assert not cluster.client(2).attempt("x", LockMode.IR)
            assert automaton.pending_mode is LockMode.NONE
            time.sleep(0.3)  # six hops' worth of anything that was sent
            assert automaton.held_modes == {LockMode.R: 1}
            assert automaton.pending_mode is LockMode.NONE
            for node in (1, 2):
                cluster.client(node).release("x", LockMode.R)

    def test_timeout_raises(self):
        with ThreadedHierarchicalCluster(2) as cluster:
            cluster.client(0).acquire("t", LockMode.W, timeout=TIMEOUT)
            with pytest.raises(TimeoutError):
                cluster.client(1).acquire("t", LockMode.W, timeout=0.2)
            # Cleanup: release the W so the pending request drains.
            cluster.client(0).release("t", LockMode.W)

    def test_downgrade_lets_reader_in(self):
        monitor = CompatibilityMonitor()
        with ThreadedHierarchicalCluster(2, monitor=monitor) as cluster:
            writer = cluster.client(0)
            reader = cluster.client(1)
            writer.acquire("t", LockMode.W, timeout=TIMEOUT)
            done = threading.Event()

            def read():
                reader.acquire("t", LockMode.R, timeout=TIMEOUT)
                reader.release("t", LockMode.R)
                done.set()

            thread = threading.Thread(target=read)
            thread.start()
            assert not done.wait(timeout=0.3)  # blocked by the W
            writer.downgrade("t", LockMode.W, LockMode.R)
            assert done.wait(timeout=TIMEOUT)
            writer.release("t", LockMode.R)
            thread.join(timeout=10)


class TestBareHostOnThreads:
    """The threaded cluster is the bare host's thread binding: the audit,
    splice-aware token homes and membership splices come with it."""

    @staticmethod
    def _traffic(cluster, nodes):
        def work(node):
            client = cluster.client(node)
            for step in range(6):
                lock_id = f"db/{(node + step) % 3}"
                mode = LockMode.W if (node + step) % 2 else LockMode.R
                intent = intention_mode(mode)
                client.acquire("db", intent, timeout=TIMEOUT)
                client.acquire(lock_id, mode, timeout=TIMEOUT)
                client.release(lock_id, mode)
                client.release("db", intent)

        threads = [threading.Thread(target=work, args=(n,)) for n in nodes]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        cluster.transport.drain()

    def test_quiescent_audit_across_join_and_removal(self):
        monitor = CompatibilityMonitor()
        with ThreadedHierarchicalCluster(4, monitor=monitor) as cluster:
            self._traffic(cluster, range(4))
            cluster.assert_quiescent_invariants()
            joiner = cluster.add_node()
            assert joiner == 4
            cluster.transport.drain()
            # Node 0 is every token's home: its custody moves away.
            cluster.remove_node(0)
            cluster.transport.drain()
            assert cluster.members == [1, 2, 3, 4]
            self._traffic(cluster, cluster.members)
            cluster.assert_quiescent_invariants()
            monitor.assert_all_released()
            assert [e["event"] for e in cluster.membership_log] == [
                "join", "removed",
            ]
            assert [n.node for n in cluster.cluster_view().nodes] == [
                1, 2, 3, 4,
            ]

    def test_refused_join_leaves_no_node_behind(self):
        with ThreadedHierarchicalCluster(
            2, transport=TcpTransport()
        ) as cluster:
            with pytest.raises(SimulationError, match="after start"):
                cluster.add_node()
            assert sorted(cluster.lockspaces) == cluster.members == [0, 1]
            cluster.assert_quiescent_invariants()
