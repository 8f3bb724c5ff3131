"""The kernel's two hot paths: one table lookup in, one fabric call out.

``RecoveryManager.handle`` keeps its guards, beats the detector, then
dispatches on ``type(message)`` through the one handler table (whose
second column says whether the type's ``boot`` is the sender's
incarnation); ``send`` / ``broadcast`` hand the fabric one batch each.
"""

from __future__ import annotations

import collections

from repro.core.messages import RequestMessage, fresh_request_id
from repro.core.modes import LockMode
from repro.faults.channel import ReliableChannel
from repro.faults.messages import (
    HeartbeatMessage,
    OrphanReport,
    ReparentMessage,
    SessionAck,
    SessionMessage,
    TokenAck,
    TokenProbe,
)
from repro.faults.recovery import RecoveryConfig
from repro.faults.simcluster import ResilientSimCluster
from repro.membership.messages import MEMBERSHIP_TYPES
from repro.sim.network import Network

from .handcrank import build

LOCK = "L"
PATIENT = RecoveryConfig(suspect_timeout=1e6)


def _blank(kind: type, sender: int, boot: int):
    """A *kind* carrying only what ``handle`` itself may read."""

    message = object.__new__(kind)
    object.__setattr__(message, "sender", sender)
    object.__setattr__(message, "boot", boot)
    return message


def _spied(manager):
    """Replace every row's handler (and the detector's ``beat``) with a
    recorder; returns the shared call log."""

    log = []
    for kind, (_handler, has_boot) in list(manager._handlers.items()):
        manager._handlers[kind] = (
            lambda message, kind=kind: log.append(("handler", kind)),
            has_boot,
        )
    beat = manager.detector.beat

    def spy(peer, now):
        log.append(("beat", peer))
        return beat(peer, now)

    manager.detector.beat = spy
    return log


def test_the_table_covers_every_type_the_stack_sends_to_itself():
    _scheduler, fabric = build(3, PATIENT)
    table = fabric.managers[0]._handlers
    assert set(table) == {
        SessionMessage, SessionAck, HeartbeatMessage,
        OrphanReport, TokenProbe, TokenAck, ReparentMessage,
        *MEMBERSHIP_TYPES,
    }
    # Only a frame and a heartbeat speak for their sender's incarnation.
    assert {kind for kind, (_h, boot) in table.items() if boot} == {
        SessionMessage, HeartbeatMessage,
    }


def test_every_type_reaches_one_handler_after_one_beat():
    _scheduler, fabric = build(3, PATIENT)
    manager = fabric.managers[0]
    log = _spied(manager)
    for kind, (_handler, has_boot) in list(manager._handlers.items()):
        del log[:]
        manager._peer_boots.clear()
        assert manager.handle(_blank(kind, sender=1, boot=3)) == []
        assert log == [("beat", 1), ("handler", kind)]
        assert manager._peer_boots == ({1: 3} if has_boot else {})


def test_a_stopped_manager_and_a_departed_sender_drop_everything():
    _scheduler, fabric = build(3, PATIENT)
    manager = fabric.managers[0]
    log = _spied(manager)
    kinds = list(manager._handlers) + [RequestMessage]
    manager.membership.departed.add(2)
    for kind in kinds:
        assert manager.handle(_blank(kind, sender=2, boot=1)) == []
    manager.stop()
    for kind in kinds:
        assert manager.handle(_blank(kind, sender=1, boot=1)) == []
    assert log == []


def test_heartbeats_never_enter_the_channel_frames_and_acks_always_do(
    monkeypatch,
):
    entered = collections.Counter()
    original = ReliableChannel.handle

    def spy(self, message):
        entered[type(message)] += 1
        return original(self, message)

    monkeypatch.setattr(ReliableChannel, "handle", spy)
    scheduler, fabric = build(3, PATIENT)
    fabric.managers[1].request(LOCK, LockMode.W)
    for _round in range(3):
        scheduler.advance(scheduler.now() + 0.5)
        fabric.deliver()  # replies included, until nothing is parked
    total = collections.Counter(type(m) for _s, _d, m in fabric.log)
    assert not fabric.parked
    assert total[HeartbeatMessage] >= 18 and total[SessionMessage] >= 2
    assert entered == {
        SessionMessage: total[SessionMessage],
        SessionAck: total[SessionAck],
    }
    assert fabric.managers[1].lockspace.automaton(LOCK).has_token


def test_an_unsessioned_protocol_message_still_reaches_the_automaton():
    _scheduler, fabric = build(2, PATIENT)
    home = fabric.managers[0]
    home.handle(
        RequestMessage(
            lock_id=LOCK, sender=1, origin=1, mode=LockMode.W,
            request_id=fresh_request_id(1, 1),
        )
    )
    # Node 0 (the token home) answered through its channel.
    (frame,) = fabric.sent(SessionMessage, sender=0)
    assert type(frame.payload).__name__ == "TokenMessage"
    assert not home.lockspace.automaton(LOCK).has_token


def test_send_and_broadcast_are_one_fabric_call_each():
    calls = []
    _scheduler, fabric = build(4, PATIENT)
    manager = fabric.managers[0]
    manager._transport_send = calls.append
    probe = TokenProbe(lock_id=LOCK, sender=0)
    manager.send(2, probe)
    manager.broadcast([3, 1, 2], probe)
    manager.broadcast([], probe)
    assert [[(e.dest, e.message) for e in batch] for batch in calls] == [
        [(2, probe)], [(3, probe), (1, probe), (2, probe)], [],
    ]


def test_a_heartbeat_tick_is_one_network_send_per_node(monkeypatch):
    nodes = 8
    beats = collections.Counter()    # sender -> calls made of heartbeats only
    widths = set()
    original = Network.send

    def counting(self, sender, envelopes):
        kinds = {type(envelope.message) for envelope in envelopes}
        if kinds == {HeartbeatMessage}:
            beats[sender] += 1
            widths.add(len(envelopes))
        else:
            assert HeartbeatMessage not in kinds
        return original(self, sender, envelopes)

    monkeypatch.setattr(Network, "send", counting)
    cluster = ResilientSimCluster(nodes, seed=5)
    cluster.sim.run(until=5.0)
    interval = cluster.config.heartbeat_interval
    ticks = int(5.0 / interval) + 1    # t = 0, 0.5, ..., 5.0
    assert beats == {node: ticks for node in range(nodes)}
    assert widths == {nodes - 1}       # one envelope per peer
