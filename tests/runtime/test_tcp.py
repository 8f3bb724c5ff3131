"""Tests for the TCP loopback transport and a cluster running over it."""

from __future__ import annotations

import threading

import pytest

from repro.core.messages import Envelope, ReleaseMessage
from repro.core.modes import LockMode
from repro.errors import SimulationError
from repro.faults.messages import SessionMessage
from repro.runtime.cluster import ThreadedHierarchicalCluster
from repro.runtime.tcp import TcpTransport
from repro.verification.invariants import CompatibilityMonitor
from tests.helpers import RecordingSink

TIMEOUT = 30.0


def _release(sender=0):
    return ReleaseMessage(lock_id="L", sender=sender, new_mode=LockMode.NONE)


class TestTcpTransport:
    def test_frame_round_trip(self):
        transport = TcpTransport()
        received = threading.Event()
        seen = []
        transport.register(0, lambda msg: [])
        transport.register(
            1, lambda msg: (seen.append(msg), received.set(), [])[-1]
        )
        transport.start()
        try:
            transport.send(0, [Envelope(1, _release())])
            assert received.wait(timeout=10.0)
            assert isinstance(seen[0], ReleaseMessage)
            assert transport.messages_sent == 1
        finally:
            transport.stop()

    def test_fifo_per_connection(self):
        transport = TcpTransport()
        received = []
        done = threading.Event()

        def handler(msg):
            received.append(msg.sender)
            if len(received) == 50:
                done.set()
            return []

        transport.register(0, lambda msg: [])
        transport.register(1, handler)
        transport.start()
        try:
            for index in range(50):
                transport.send(
                    0,
                    [Envelope(1, ReleaseMessage(
                        lock_id="L", sender=index, new_mode=LockMode.NONE
                    ))],
                )
            assert done.wait(timeout=10.0)
            assert received == list(range(50))
        finally:
            transport.stop()

    def test_replies_flow_back_over_tcp(self):
        transport = TcpTransport()
        round_trip = threading.Event()
        transport.register(0, lambda msg: round_trip.set() or [])
        transport.register(1, lambda msg: [Envelope(0, _release(sender=1))])
        transport.start()
        try:
            transport.send(0, [Envelope(1, _release())])
            assert round_trip.wait(timeout=10.0)
        finally:
            transport.stop()

    def test_unregistered_destination_rejected(self):
        transport = TcpTransport()
        transport.register(0, lambda msg: [])
        transport.start()
        try:
            with pytest.raises(SimulationError):
                transport.send(0, [Envelope(9, _release())])
        finally:
            transport.stop()

    def test_each_counted_frame_is_observed_once(self):
        """One ``obs.message`` per counted send, labelled by
        ``fault_label``; a self-send is refused before it is either, and
        node 0's handler never runs for it."""

        sink = RecordingSink()
        transport = TcpTransport(obs=sink)
        received = threading.Semaphore(0)
        local = []
        transport.register(0, lambda msg: local.append(msg) or [])
        transport.register(1, lambda msg: received.release() or [])
        transport.start()
        try:
            with pytest.raises(SimulationError, match="node 0 .* to itself"):
                transport.send(0, [Envelope(0, _release())])
            assert local == [] and sink.seen == []
            transport.send(0, [
                Envelope(1, _release()),
                Envelope(1, SessionMessage(
                    lock_id="L", sender=0, seq=0, payload=_release()
                )),
            ])
            for _ in range(2):
                assert received.acquire(timeout=10.0)
            assert sink.seen == [(0, 1, "release"), (0, 1, "release")]
            assert transport.messages_sent == 2
        finally:
            transport.stop()

    def test_each_node_gets_distinct_port(self):
        transport = TcpTransport()
        transport.register(0, lambda msg: [])
        transport.register(1, lambda msg: [])
        assert transport.address_of(0) != transport.address_of(1)
        transport.stop()


class TestClusterOverTcp:
    def test_full_protocol_over_sockets(self):
        monitor = CompatibilityMonitor()
        with ThreadedHierarchicalCluster(
            3, monitor=monitor, transport=TcpTransport()
        ) as cluster:
            client = cluster.client(1)
            client.acquire("db/t", LockMode.IW, timeout=TIMEOUT)
            client.acquire("db/t/0", LockMode.W, timeout=TIMEOUT)
            client.release("db/t/0", LockMode.W)
            client.release("db/t", LockMode.IW)
            monitor.assert_all_released()

    def test_writers_serialize_over_sockets(self):
        monitor = CompatibilityMonitor()
        with ThreadedHierarchicalCluster(
            3, monitor=monitor, transport=TcpTransport()
        ) as cluster:
            inside = {"count": 0, "max": 0}
            guard = threading.Lock()

            def writer(node):
                client = cluster.client(node)
                for _ in range(5):
                    client.acquire("t", LockMode.W, timeout=TIMEOUT)
                    with guard:
                        inside["count"] += 1
                        inside["max"] = max(inside["max"], inside["count"])
                        inside["count"] -= 1
                    client.release("t", LockMode.W)

            threads = [
                threading.Thread(target=writer, args=(n,)) for n in range(3)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert inside["max"] == 1
            monitor.assert_all_released()

    def test_upgrade_over_sockets(self):
        monitor = CompatibilityMonitor()
        with ThreadedHierarchicalCluster(
            2, monitor=monitor, transport=TcpTransport()
        ) as cluster:
            client = cluster.client(1)
            client.acquire("t", LockMode.U, timeout=TIMEOUT)
            client.upgrade("t", timeout=TIMEOUT)
            client.release("t", LockMode.W)
            monitor.assert_all_released()
