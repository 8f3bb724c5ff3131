"""ReliableChannel: ordering, dedup, retransmission, incarnations."""

from __future__ import annotations

from typing import Callable, List, Tuple

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
            retry_base=0.1,
            retry_cap=0.4,
        )
        self.b = ReliableChannel(
            node_id=1,
            scheduler=self.scheduler,
            send=fabric_for(1),
            deliver=lambda sender, payload: self.delivered.append(payload),
            retry_base=0.1,
            retry_cap=0.4,
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
        pair.scheduler.advance(0.11)  # past retry_base
        assert pair.delivered == [message]
        assert pair.a.retransmits >= 1

    def test_ack_quiesces_the_stream(self):
        pair = _Pair()
        pair.a.send(1, _payload(0))
        assert pair.a.idle()
        before = pair.a.retransmits
        pair.scheduler.advance(5.0)
        assert pair.a.retransmits == before

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
        assert not pair.a.idle()
        pair.a.stop_peer(1)
        assert pair.a.idle()


    def test_a_stopped_channel_retransmits_nothing_until_started(self):
        pair = _Pair(drop_next=100)
        pair.a.send(1, _payload(0))
        pair.scheduler.advance(0.11)
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
        pair.scheduler.advance(0.11)
        assert pair.a.retransmits == 2


class TestAcks:
    def test_stale_ack_does_not_trim_new_stream(self):
        pair = _Pair(drop_next=100)
        pair.a.send(1, _payload(0))
        # An ack for a different incarnation of our stream is ignored.
        pair.a.handle(
            SessionAck(lock_id="lock", sender=1, ack=0, boot=99)
        )
        assert not pair.a.idle()
