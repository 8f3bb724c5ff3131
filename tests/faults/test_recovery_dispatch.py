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
    CustodyAnswer,
    CustodyProbe,
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
        CustodyProbe, CustodyAnswer, *MEMBERSHIP_TYPES,
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
    # The request frame arrives twice, so a standalone ack crosses too (a
    # clean stream's acks ride the heartbeats, which never enter).
    fabric.parked.append(
        next(e for e in fabric.parked if isinstance(e[2], SessionMessage))
    )
    for _round in range(3):
        scheduler.advance(scheduler.now() + 0.5)
        fabric.deliver()  # replies included, until nothing is parked
    total = collections.Counter(type(m) for _s, _d, m in fabric.log)
    assert not fabric.parked
    assert total[HeartbeatMessage] >= 18 and total[SessionMessage] >= 2
    assert total[SessionAck] >= 1
    assert entered == {
        SessionMessage: total[SessionMessage] + 1,  # (the copy: no send)
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
    calls = collections.Counter()    # (sender, time) -> heartbeat calls
    dests = collections.defaultdict(list)   # sender -> each call's dests
    original = Network.send

    def counting(self, sender, envelopes):
        kinds = {type(envelope.message) for envelope in envelopes}
        if kinds == {HeartbeatMessage}:
            calls[sender, self._sim.now] += 1
            dests[sender].append(
                (self._sim.now, [envelope.dest for envelope in envelopes])
            )
        else:
            assert HeartbeatMessage not in kinds
        return original(self, sender, envelopes)

    monkeypatch.setattr(Network, "send", counting)
    cluster = ResilientSimCluster(nodes, seed=5)
    cluster.sim.run(until=10.0)
    interval = cluster.config.heartbeat_interval
    ticks = int(10.0 / interval) + 1   # t = 0, 0.5, ..., 10.0
    assert set(calls.values()) == {1}  # one call per tick, at most
    assert {sender for sender, _at in calls} == set(range(nodes))
    for node, sent in dests.items():
        assert len(sent) <= ticks
        peers = set(range(nodes)) - {node}
        for _at, batch in sent:        # one envelope per peer beaten
            assert len(set(batch)) == len(batch) and set(batch) <= peers
        # Past its first sweep (when a node beats everyone), each peer
        # is still beaten within every run of sweep consecutive ticks
        # (a tick that beats nobody sends nothing).
        sweep = cluster.managers[node].sweep
        first = sent[0][0]
        batches = [set() for _ in range(ticks)]
        for at, batch in sent:
            batches[round((at - first) / interval)] = set(batch)
        later = batches[sweep:ticks - 1]
        assert later and not all(batch == peers for batch in later)
        for start in range(sweep, ticks - sweep):
            assert set().union(*batches[start:start + sweep]) == peers
