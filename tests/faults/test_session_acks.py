"""Session acks ride heartbeats; gaps and duplicates are answered at once.

Driven over two hand-cranked kernels (``handcrank.py``) whose heartbeat
ticks run, so an ack travels the way it does in a cluster: on the beat
to the peer that is owed it.  The test places every arrival, so it can
lose, copy and reorder anything — the fabric under the channel may, and
the channel exists to hide that.
"""

from __future__ import annotations

import pickle
from typing import Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.messages import ReleaseMessage
from repro.core.modes import LockMode
from repro.faults.messages import HeartbeatMessage, SessionAck, SessionMessage
from repro.faults.recovery import RecoveryConfig

from .handcrank import build

#: Nobody is ever suspected by the clock: the test decides everything.
PATIENT = RecoveryConfig(suspect_timeout=1e6)
BASE, CAP = PATIENT.channel_retry_base, PATIENT.channel_retry_cap


class _Link:
    """Nodes 0 and 1, heartbeating; each channel's deliveries recorded,
    and every RTT sample checked against Karn's rule as it is taken."""

    def __init__(self, nodes: int = 2) -> None:
        self.scheduler, self.fabric = build(nodes, PATIENT)
        self.kernels = self.fabric.managers
        self.sent = {node: [] for node in self.kernels}
        self.delivered = {node: [] for node in self.kernels}
        #: ``(src, seq) -> when`` the frame first went out.
        self.first_sent = {}
        for node, kernel in self.kernels.items():
            self._instrument(node, kernel.channel)

    def _instrument(self, node, channel) -> None:
        channel._deliver = (
            lambda peer, payload: self.delivered[node].append(payload)
        )
        trim, sample = channel._trim, channel._sample
        taken = []

        def spy_sample(stream, rtt):
            taken.append(rtt)
            sample(stream, rtt)

        def spy_trim(peer, ack, boot):
            stream = channel._out.get(peer)
            acked = [] if stream is None else [
                seq for seq in stream.unacked if seq <= ack
            ]
            del taken[:]
            result = trim(peer, ack, boot)
            if taken:
                # Sampled from the newest frame acked, which went out once.
                (rtt,) = taken
                newest = acked[-1]
                assert self.transmissions(node, newest) == 1
                assert rtt == (
                    self.scheduler.now() - self.first_sent[(node, newest)]
                )
            return result

        channel._sample, channel._trim = spy_sample, spy_trim

    def send(self, src: int, dest: Optional[int] = None) -> None:
        dest = 1 - src if dest is None else dest
        payload = ReleaseMessage(
            lock_id="L", sender=src, new_mode=LockMode.NONE,
            attachment_seq=len(self.sent[src]),
        )
        self.sent[src].append(payload)
        channel = self.kernels[src].channel
        channel.send(dest, payload)
        self.first_sent[(src, channel._out[dest].next_seq - 1)] = (
            self.scheduler.now()
        )

    def transmissions(self, src: int, seq: int) -> int:
        return sum(
            1 for frame in self.fabric.sent(SessionMessage, sender=src)
            if frame.seq == seq
        )

    def arrive(self, index: int, keep: bool = False) -> None:
        """Deliver parked message *index* (and keep a copy parked)."""

        parked = self.fabric.parked
        entry = parked[index % len(parked)]
        if not keep:
            parked.remove(entry)
        self.kernels[entry[1]].handle(entry[2])

    def take(self, src: int, kind: type, **fields) -> tuple:
        """Remove and return the first parked *kind* from *src* whose
        fields match."""

        for entry in self.fabric.parked:
            if entry[0] == src and isinstance(entry[2], kind) and all(
                getattr(entry[2], name) == value
                for name, value in fields.items()
            ):
                self.fabric.parked.remove(entry)
                return entry
        raise AssertionError(f"no parked {kind.__name__} {fields}")

    def unacked(self, src: int, dest: int) -> list:
        stream = self.kernels[src].channel._out.get(dest)
        return [] if stream is None else list(stream.unacked)

    def session_traffic(self) -> int:
        return sum(
            1 for _s, _d, m in self.fabric.log
            if isinstance(m, (SessionMessage, SessionAck))
        )

    def settle(self) -> None:
        """Deliver everything, tick by tick, until both streams are idle."""

        for _ in range(40):
            self.fabric.deliver()
            if all(not k.channel.awaiting() for k in self.kernels.values()):
                return
            self.tick()
        raise AssertionError("the streams never went idle")

    def tick(self) -> None:
        """One heartbeat interval on."""

        self.scheduler.advance(
            self.scheduler.now() + PATIENT.heartbeat_interval
        )


ACTIONS = st.lists(
    st.one_of(
        st.tuples(st.just("send"), st.integers(0, 1)),
        st.tuples(
            st.sampled_from(["deliver", "drop", "copy"]), st.integers(0, 63)
        ),
        st.tuples(st.just("wait"), st.sampled_from([0.05, 0.25, 0.5, 1.5])),
        st.tuples(st.just("forge"), st.integers(0, 8)),
    ),
    max_size=40,
)


@settings(max_examples=150, deadline=None)
@given(actions=ACTIONS)
def test_any_loss_copy_and_reorder_pattern_delivers_once_in_order_and_quiesces(
    actions,
):
    link = _Link()
    #: Highest ack applied so far to each stream, ``(src, dest)``.
    highest = {(0, 1): -1, (1, 0): -1}
    for kind, arg in actions:
        if kind == "send":
            link.send(arg)
        elif kind == "wait":
            link.scheduler.advance(link.scheduler.now() + arg)
        elif kind == "forge":
            # An ack for some other incarnation of node 0's stream.
            before = link.unacked(0, 1)
            link.kernels[0].handle(HeartbeatMessage(
                lock_id="", sender=1, ack=arg, ack_boot=7,
            ))
            assert link.unacked(0, 1) == before
        elif link.fabric.parked:
            if kind == "drop":
                link.fabric.parked.pop(arg % len(link.fabric.parked))
                continue
            parked = link.fabric.parked[arg % len(link.fabric.parked)]
            acker, src, message = parked
            before = link.unacked(src, acker)
            link.arrive(arg, keep=kind == "copy")
            if isinstance(message, (HeartbeatMessage, SessionAck)):
                if message.ack <= highest[(src, acker)]:
                    # Stale or copied: it trims nothing new.
                    assert link.unacked(src, acker) == before
                highest[(src, acker)] = max(
                    highest[(src, acker)], message.ack
                )
        for kernel in link.kernels.values():
            for stream in kernel.channel._out.values():
                assert BASE <= stream.rto <= CAP
    link.settle()
    assert link.delivered[1] == link.sent[0]
    assert link.delivered[0] == link.sent[1]
    # Quiet: from here on only heartbeats cross.
    traffic = link.session_traffic()
    for _ in range(10):
        link.tick()
        link.fabric.deliver()
    assert link.session_traffic() == traffic
    assert all(not k.channel.awaiting() for k in link.kernels.values())


def test_a_gap_is_answered_by_one_ack_and_repaired_by_one_resend():
    link = _Link()
    for _ in range(3):
        link.send(0)
    link.take(0, SessionMessage, seq=0)           # lost on the wire
    for seq in (1, 2):
        _s, dest, frame = link.take(0, SessionMessage, seq=seq)
        link.kernels[dest].handle(frame)
    # One gap, one ack — not one per frame behind it.
    (gap_ack,) = link.fabric.sent(SessionAck, sender=1)
    assert gap_ack.ack == -1
    link.kernels[0].handle(gap_ack)
    link.kernels[0].handle(gap_ack)                # copied by the fabric
    assert link.kernels[0].channel.retransmits == 1
    assert link.transmissions(0, 0) == 2
    _s, dest, resent = link.take(0, SessionMessage, seq=0)
    link.kernels[dest].handle(resent)
    assert link.delivered[1] == link.sent[0]
    assert link.scheduler.now() == 0.0             # no timer was needed


def test_an_ack_rides_only_the_beat_to_the_peer_it_is_owed():
    link = _Link(nodes=3)
    link.send(0, dest=1)
    _s, dest, frame = link.take(0, SessionMessage, seq=0)
    link.kernels[dest].handle(frame)
    assert link.fabric.sent(SessionAck) == []
    link.scheduler.advance(PATIENT.heartbeat_interval)   # node 1's 2nd beat
    beats = {
        dest: message for sender, dest, message in link.fabric.log
        if isinstance(message, HeartbeatMessage) and sender == 1
        and message.seq == 2
    }
    assert (beats[0].ack, beats[0].ack_boot) == (0, 0)
    assert beats[2].ack == -1
    link.fabric.deliver()
    assert not link.kernels[0].channel.awaiting()
    # Carried once: the next beat to node 0 owes nothing.
    link.scheduler.advance(2 * PATIENT.heartbeat_interval)
    assert [
        m.ack for s, d, m in link.fabric.log
        if isinstance(m, HeartbeatMessage) and s == 1 and d == 0
    ] == [-1, 0, -1]


def test_a_beat_that_acks_nothing_pickles_without_the_ack_pair():
    plain = HeartbeatMessage(lock_id="", sender=1, seq=4)
    acked = HeartbeatMessage(lock_id="", sender=1, seq=4, ack=9, ack_boot=2)
    assert b"ack" not in pickle.dumps(plain)
    for beat in (plain, acked):
        copy = pickle.loads(pickle.dumps(beat))
        assert copy == beat and (copy.ack, copy.ack_boot) == (
            beat.ack, beat.ack_boot
        )
        assert pickle.loads(pickle.dumps(copy)) == beat  # and again


def test_an_ack_from_a_previous_incarnation_of_the_peer_is_ignored():
    link = _Link()
    link.send(0)
    # Node 1 restarts: its first beat of boot 1 tears node 0's streams
    # to it down, and node 0's next frame opens a fresh stream at seq 0.
    link.kernels[0].handle(
        HeartbeatMessage(lock_id="", sender=1, boot=1, seq=1)
    )
    link.send(0)
    assert link.unacked(0, 1) == [0]
    # A late beat of the old life acking the old stream's frame 0.
    link.kernels[0].handle(
        HeartbeatMessage(lock_id="", sender=1, boot=0, seq=9, ack=0)
    )
    assert link.unacked(0, 1) == [0]


@pytest.mark.parametrize("cap", [0.25, 0.5])
def test_the_config_rejects_a_channel_cap_a_heartbeat_cannot_fit_under(cap):
    with pytest.raises(ValueError, match="heartbeat_interval"):
        RecoveryConfig(heartbeat_interval=0.5, channel_retry_cap=cap)
    RecoveryConfig(heartbeat_interval=0.5, channel_retry_cap=0.51)
