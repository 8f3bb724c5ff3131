"""Tests for the threaded in-process transport."""

from __future__ import annotations

import threading
import time

import pytest

from repro.core.messages import Envelope, ReleaseMessage
from repro.core.modes import LockMode
from repro.errors import SimulationError
from repro.faults.messages import SessionMessage
from repro.runtime.transport import ThreadedTransport
from tests.helpers import RecordingSink


def _release(sender=0):
    return ReleaseMessage(lock_id="L", sender=sender, new_mode=LockMode.NONE)


class TestThreadedTransport:
    def test_delivery_to_handler(self):
        transport = ThreadedTransport()
        received = threading.Event()
        transport.register(0, lambda msg: [])
        transport.register(1, lambda msg: received.set() or [])
        transport.start()
        try:
            transport.send(0, [Envelope(1, _release())])
            assert received.wait(timeout=5.0)
        finally:
            transport.stop()

    def test_replies_flow_back(self):
        transport = ThreadedTransport()
        round_trip = threading.Event()
        transport.register(0, lambda msg: round_trip.set() or [])
        transport.register(1, lambda msg: [Envelope(0, _release(sender=1))])
        transport.start()
        try:
            transport.send(0, [Envelope(1, _release())])
            assert round_trip.wait(timeout=5.0)
        finally:
            transport.stop()

    def test_fifo_order_per_pair(self):
        transport = ThreadedTransport()
        received = []
        done = threading.Event()

        def handler(msg):
            received.append(msg.sender)
            if len(received) == 20:
                done.set()
            return []

        transport.register(0, lambda msg: [])
        transport.register(1, handler)
        transport.start()
        try:
            for index in range(20):
                transport.send(
                    0,
                    [Envelope(1, ReleaseMessage(
                        lock_id="L", sender=index, new_mode=LockMode.NONE
                    ))],
                )
            assert done.wait(timeout=5.0)
            assert received == list(range(20))
        finally:
            transport.stop()

    def test_message_counter_excludes_self_sends(self):
        """A self-send is refused where it is met, like a send to an
        unregistered node: the envelopes before it went out, it and
        those after it did not, and no handler ran for it."""

        seen = {0: [], 1: []}
        transport = ThreadedTransport()
        transport.register(0, lambda msg: seen[0].append(msg) or [])
        transport.register(1, lambda msg: seen[1].append(msg) or [])
        transport.start()
        try:
            with pytest.raises(SimulationError, match="node 0 .* to itself"):
                transport.send(0, [
                    Envelope(1, _release()), Envelope(0, _release()),
                    Envelope(1, _release()),
                ])
            transport.drain()
            assert transport.messages_sent == 1
            assert len(seen[1]) == 1 and seen[0] == []
        finally:
            transport.stop()

    def test_unregistered_destination_rejected(self):
        transport = ThreadedTransport()
        transport.register(0, lambda msg: [])
        transport.start()
        try:
            with pytest.raises(SimulationError):
                transport.send(0, [Envelope(7, _release())])
        finally:
            transport.stop()

    def test_registration_after_start_serves_the_new_node(self):
        """A membership join registers on a running transport; the late
        node's dispatcher spins up immediately."""

        transport = ThreadedTransport()
        transport.register(0, lambda msg: [])
        transport.start()
        try:
            received = threading.Event()
            transport.register(1, lambda msg: received.set() or [])
            transport.send(0, [Envelope(1, _release())])
            assert received.wait(timeout=5.0)
        finally:
            transport.stop()

    def test_double_registration_rejected(self):
        transport = ThreadedTransport()
        transport.register(0, lambda msg: [])
        with pytest.raises(SimulationError):
            transport.register(0, lambda msg: [])

    def test_stop_is_idempotent(self):
        transport = ThreadedTransport()
        transport.register(0, lambda msg: [])
        transport.start()
        transport.stop()
        transport.stop()

    def test_drain_waits_for_mid_flight_handler(self):
        """drain() must not declare idle while a handler is mid-flight.

        Node 0's handler sleeps long enough for every inbox to look empty
        across many polls before it finally sends to node 1 — the exact
        race the old inbox-emptiness heuristic lost.  With the in-flight
        counter, drain() returns only after node 1 has been reached.
        """

        transport = ThreadedTransport()
        reached = threading.Event()

        def slow_then_forward(msg):
            # Far longer than drain's poll * settle_rounds window.
            time.sleep(0.1)
            return [Envelope(1, _release())]

        transport.register(0, slow_then_forward)
        transport.register(1, lambda msg: reached.set() or [])
        transport.start()
        try:
            transport.send(1, [Envelope(0, _release(sender=1))])
            transport.drain(poll=0.001, settle_rounds=3)
            assert reached.is_set(), (
                "drain() returned while a handler was still mid-flight"
            )
        finally:
            transport.stop()

    def test_drain_confirm_pass_restarts_on_late_arrivals(self):
        """A send racing the settle loop restarts the drain, not idles."""

        transport = ThreadedTransport()
        hops = []

        def chain(peer):
            def handler(msg):
                hops.append(msg.sender)
                if len(hops) < 5:
                    time.sleep(0.02)
                    return [Envelope(peer, _release(sender=len(hops)))]
                return []

            return handler

        # The chain bounces between the two nodes (a self-send is refused).
        transport.register(0, chain(1))
        transport.register(1, chain(0))
        transport.start()
        try:
            transport.send(0, [Envelope(1, _release())])
            transport.drain(poll=0.001, settle_rounds=2)
            assert len(hops) == 5
        finally:
            transport.stop()

    def test_observer_invoked_off_the_hot_path(self):
        """One ``obs.message`` per counted send, labelled by
        ``fault_label``; a self-send is refused before it is either."""

        sink = RecordingSink()
        transport = ThreadedTransport(obs=sink)
        transport.register(0, lambda msg: [])
        transport.register(1, lambda msg: [])
        transport.start()
        try:
            with pytest.raises(SimulationError, match="to itself"):
                transport.send(0, [Envelope(0, _release())])
            transport.send(0, [
                Envelope(1, _release()),
                Envelope(1, SessionMessage(
                    lock_id="L", sender=0, seq=0, payload=_release()
                )),
            ])
            transport.drain()
            assert sink.seen == [(0, 1, "release"), (0, 1, "release")]
            assert transport.messages_sent == 2
        finally:
            transport.stop()
