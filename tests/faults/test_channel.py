"""ReliableChannel: ordering, dedup, retransmission, incarnations."""

from __future__ import annotations

from typing import Callable, List, Tuple

import pytest

from repro.core.messages import RequestMessage, fresh_request_id
from repro.core.modes import LockMode
from repro.faults.channel import ReliableChannel
from repro.faults.messages import SessionAck, SessionMessage


class ManualScheduler:
    """Deterministic test clock: fire due callbacks on ``advance``."""

    def __init__(self) -> None:
        self.t = 0.0
        self._due: List[Tuple[float, int, Callable[[], None]]] = []
        self._serial = 0

    def now(self) -> float:
        return self.t

    def call_later(self, delay: float, fn: Callable[[], None]) -> None:
        self._due.append((self.t + delay, self._serial, fn))
        self._serial += 1

    def advance(self, dt: float) -> None:
        self.t += dt
        due = sorted(e for e in self._due if e[0] <= self.t)
        self._due = [e for e in self._due if e[0] > self.t]
        for _, _, fn in due:
            fn()


def _payload(n: int) -> RequestMessage:
    return RequestMessage(
        lock_id="lock",
        sender=0,
        origin=0,
        mode=LockMode.R,
        request_id=fresh_request_id(n, 0),
    )


class _Pair:
    """Two channels joined by a controllable fabric."""

    def __init__(self, drop_next: int = 0) -> None:
        self.scheduler = ManualScheduler()
        self.delivered: List[RequestMessage] = []
        self.wire: List[Tuple[int, object]] = []  # (dest, frame) log
        self.drop_next = drop_next

        def fabric_for(src: int):
            def send(dest: int, frame) -> None:
                self.wire.append((dest, frame))
                if self.drop_next > 0 and isinstance(frame, SessionMessage):
                    self.drop_next -= 1
                    return
                target = self.b if dest == 1 else self.a
                target.handle(frame)

            return send

        self.a = ReliableChannel(
            node_id=0,
            scheduler=self.scheduler,
            send=fabric_for(0),
            deliver=lambda sender, payload: self.delivered.append(payload),
            rto_min=0.1,
            rto_max=0.4,
        )
        self.b = ReliableChannel(
            node_id=1,
            scheduler=self.scheduler,
            send=fabric_for(1),
            deliver=lambda sender, payload: self.delivered.append(payload),
            rto_min=0.1,
            rto_max=0.4,
        )

    def carry_acks(self) -> None:
        """What the host's heartbeat tick does: hand each side the acks
        the other owes it."""

        for node, channel in ((0, self.a), (1, self.b)):
            for peer, (ack, boot, stream) in channel.take_acks().items():
                (self.b if peer == 1 else self.a).on_ack(
                    node, ack, boot, stream
                )


class TestDelivery:
    def test_in_order_exactly_once(self):
        pair = _Pair()
        messages = [_payload(n) for n in range(5)]
        for message in messages:
            pair.a.send(1, message)
        assert pair.delivered == messages
        assert pair.b.duplicates_dropped == 0

    def test_duplicate_frame_delivered_once(self):
        pair = _Pair()
        message = _payload(0)
        pair.a.send(1, message)
        frame = next(
            f for _, f in pair.wire if isinstance(f, SessionMessage)
        )
        pair.b.handle(frame)  # the network delivered a second copy
        assert pair.delivered == [message]
        assert pair.b.duplicates_dropped == 1

    def test_dropped_frame_is_retransmitted(self):
        pair = _Pair(drop_next=1)
        message = _payload(0)
        pair.a.send(1, message)
        assert pair.delivered == []  # first copy lost
        pair.scheduler.advance(0.41)  # one RTO: rto_max, nothing learned
        assert pair.delivered == [message]
        assert pair.a.retransmits == 1
        # The resend arrived first-time, so its ack is owed, not sent:
        # the next heartbeat carries it and the stream is done.
        assert pair.a.awaiting()
        pair.carry_acks()
        assert not pair.a.awaiting()
        pair.scheduler.advance(5.0)
        assert pair.a.retransmits == 1

    def test_ack_quiesces_the_stream(self):
        pair = _Pair()
        pair.a.send(1, _payload(0))
        # Delivered, but nothing crossed back: the ack waits for a carrier.
        assert [type(f) for _, f in pair.wire] == [SessionMessage]
        assert pair.a.awaiting()
        pair.carry_acks()
        assert not pair.a.awaiting()
        assert pair.b.take_acks() == {}  # carried once, then owed no more
        before = pair.a.retransmits
        pair.scheduler.advance(5.0)
        assert pair.a.retransmits == before

    def test_a_channel_nobody_carries_acks_for_goes_quiet_after_one_rto(self):
        pair = _Pair()
        pair.a.send(1, _payload(0))
        pair.scheduler.advance(0.39)
        assert pair.a.retransmits == 0 and pair.a.awaiting()
        pair.scheduler.advance(0.02)  # past one RTO: rto_max, unlearned
        # The resend arrived as a duplicate, and a duplicate is acked at
        # once: frame, resend, ack, and nothing after.
        assert pair.a.retransmits == 1 and not pair.a.awaiting()
        kinds = [type(f) for _, f in pair.wire]
        assert kinds == [SessionMessage, SessionMessage, SessionAck]
        pair.scheduler.advance(10.0)
        assert len(pair.wire) == 3

    def test_the_timeout_learns_the_round_trip_and_backs_off_to_the_cap(self):
        pair = _Pair()
        pair.a.send(1, _payload(0))
        assert pair.a._out[1].rto == 0.4  # nothing learned: rto_max
        pair.scheduler.advance(0.05)
        pair.carry_acks()  # first sample: srtt 0.05, rttvar 0.025
        stream = pair.a._out[1]
        assert stream.rto == pytest.approx(0.05 + 4 * 0.025)
        pair.drop_next = 100  # black-hole fabric from here on
        pair.a.send(1, _payload(1))
        rtos = []
        for _ in range(4):
            pair.scheduler.advance(stream.rto + 1e-6)
            rtos.append(stream.rto)
        assert rtos == pytest.approx([0.3, 0.4, 0.4, 0.4])  # doubled, capped
        # Karn: the ack of a re-sent frame teaches the timer nothing.
        srtt = stream.srtt
        pair.a.on_ack(1, 1, 0)  # (node 1 never saw frame 1: a forged ack)
        assert not pair.a.awaiting() and stream.srtt == srtt and stream.rto == 0.4
        # A new stream starts from the last estimate, not from scratch.
        pair.a.stop_peer(1)
        pair.a.send(1, _payload(2))
        assert pair.a._out[1].rto == pytest.approx(0.15)

    def test_backoff_is_capped(self):
        pair = _Pair(drop_next=100)  # black-hole fabric
        pair.a.send(1, _payload(0))
        for _ in range(40):
            pair.scheduler.advance(0.4)
        # 16 seconds of silence with a 0.4 cap: at least ~16/0.4 retries
        # minus backoff warmup; far more than the 4 an uncapped doubling
        # schedule would manage.
        assert pair.a.retransmits > 10


class TestIncarnations:
    def test_stale_boot_frames_dropped(self):
        pair = _Pair()
        stale = SessionMessage(
            lock_id="lock", sender=0, seq=0, payload=_payload(0), boot=0
        )
        pair.b.handle(
            SessionMessage(
                lock_id="lock", sender=0, seq=0, payload=_payload(1), boot=1
            )
        )
        delivered_before = list(pair.delivered)
        pair.b.handle(stale)  # older incarnation must not regress the stream
        assert pair.delivered == delivered_before
        assert pair.b.duplicates_dropped >= 1

    def test_non_session_messages_ignored(self):
        pair = _Pair()
        assert pair.a.handle(_payload(0)) is False

    def test_stop_peer_discards_outstanding_state(self):
        pair = _Pair(drop_next=100)
        pair.a.send(1, _payload(0))
        assert pair.a.awaiting()
        pair.a.stop_peer(1)
        assert not pair.a.awaiting()


    def test_a_stopped_channel_retransmits_nothing_until_started(self):
        pair = _Pair(drop_next=100)
        pair.a.send(1, _payload(0))
        pair.scheduler.advance(0.41)  # one RTO: rto_max, unlearned
        assert pair.a.retransmits == 1
        pair.a.stop()
        pair.scheduler.advance(5.0)
        assert pair.a.retransmits == 1
        # Started again, the timers armed before the stop stay cleared
        # (not paused): a node comes back as a new incarnation with new
        # streams, and those retry.
        pair.a.start()
        pair.scheduler.advance(5.0)
        assert pair.a.retransmits == 1
        pair.a.stop_peer(1)
        pair.a.send(1, _payload(1))
        pair.scheduler.advance(0.41)
        assert pair.a.retransmits == 2


class TestAcks:
    def test_stale_ack_does_not_trim_new_stream(self):
        pair = _Pair(drop_next=100)
        pair.a.send(1, _payload(0))
        # An ack for a different incarnation of our stream is ignored.
        pair.a.handle(
            SessionAck(lock_id="lock", sender=1, ack=0, boot=99)
        )
        assert pair.a.awaiting()
