"""The recovery stack, one layer at a time.

Each test builds :class:`~repro.faults.recovery.RecoveryManager` objects
directly over a hand-cranked scheduler and a fabric that delivers on
demand (``handcrank.py``): no simulator, no cluster host, and every
message and timer placed by the test.  One test per layer-level claim
of DESIGN.md §7, plus the static rule that keeps the layers layers.
"""

from __future__ import annotations

import ast
import pathlib

import pytest

import repro
from repro.core.modes import LockMode
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
from repro.membership.messages import (
    JoinRequest,
    StateTransfer,
    ViewAck,
    ViewInstall,
    ViewProposal,
)

from .handcrank import add_manager, build

LOCK = "L"
#: Nobody is ever suspected: the test decides who is silent.
PATIENT = RecoveryConfig(suspect_timeout=1e6)


# -- membership ----------------------------------------------------------


def test_join_is_proposed_acked_by_a_quorum_installed_and_transferred():
    scheduler, fabric = build(3, PATIENT)
    sponsor = fabric.managers[0]
    sponsor.regeneration.note_hint(LOCK, 1, 4)
    joiner = add_manager(scheduler, fabric, 3, [0, 1, 2, 3], PATIENT)
    joiner.membership.request_join(0)
    fabric.deliver(JoinRequest)
    # Proposed to the *current* view only — the joiner has no vote.
    assert fabric.dests(ViewProposal) == [1, 2]
    assert sponsor.membership.view.epoch == 0  # Its own ack is 1 of 3.
    fabric.deliver(ViewProposal, only_to=1)
    fabric.deliver(ViewAck)
    # Two of three: installed, broadcast to old ∪ new, state to the joiner.
    assert sponsor.membership.view.members == (0, 1, 2, 3)
    assert fabric.dests(ViewInstall) == [1, 2, 3]
    assert fabric.dests(StateTransfer) == [3]
    fabric.drop(ViewInstall, only_to=2)  # Node 2 misses the install...
    fabric.deliver(ViewInstall, StateTransfer)
    assert [m.membership.view.epoch for m in fabric.managers.values()] == [
        1, 1, 0, 1,
    ]
    assert joiner.regeneration.hints[LOCK] == (1, 4)
    # ...and its next heartbeat, still carrying epoch 0, gets it re-sent.
    fabric.drop(HeartbeatMessage)
    scheduler.advance(0.5)
    fabric.deliver(HeartbeatMessage, only_to=0)
    assert fabric.dests(ViewInstall) == [1, 2, 2, 3]
    fabric.deliver(ViewInstall)
    assert fabric.managers[2].membership.view == sponsor.membership.view


# -- the kernel's lifecycle ----------------------------------------------


def test_a_crashed_nodes_channel_stops_retransmitting_with_it():
    """The parent stopped the manager's timers and left the channel's
    running: a dead node re-sent every unacked frame into the void."""

    scheduler, fabric = build(3, PATIENT)
    requester = fabric.managers[1]
    requester.request(LOCK, LockMode.W)
    scheduler.advance(1.0)  # The frame is never delivered: it retries.
    retransmits = requester.channel.retransmits
    assert retransmits >= 2
    requester.stop()  # What ``ResilientHost.crash`` does to the node.
    sent = len(fabric.log)
    scheduler.advance(30.0)
    assert requester.channel.retransmits == retransmits
    assert [s for s, _d, _m in fabric.log[sent:] if s == 1] == []
    requester.start()
    fabric.deliver()  # The old frame arrives after all; the stream idles.
    requester.request("M", LockMode.W)
    scheduler.advance(31.0)
    assert requester.channel.retransmits > retransmits


# -- regeneration ----------------------------------------------------------


def test_an_answered_probe_is_announced_to_the_reporters_not_claimed():
    scheduler, fabric = build(5, PATIENT)
    coordinator = fabric.managers[4]
    coordinator.handle(OrphanReport(lock_id=LOCK, sender=1, suspect=0))
    coordinator.handle(OrphanReport(lock_id=LOCK, sender=2, suspect=0))
    assert fabric.dests(TokenProbe) == [0, 1, 2, 3]
    fabric.deliver(TokenProbe, TokenAck)  # Node 0 still has the token.
    placements = [
        (dest, m.parent)
        for _s, dest, m in fabric.log
        if isinstance(m, ReparentMessage)
    ]
    assert placements == [(1, 0), (2, 0)]
    scheduler.advance(10.0)
    assert fabric.claims(4) == set()
    assert coordinator.regeneration.regenerations == []


def test_an_unanswered_probe_claims_the_next_epoch_and_serves_after_settle():
    scheduler, fabric = build(5, PATIENT)
    coordinator = fabric.managers[4]
    config = coordinator.config
    coordinator.handle(
        OrphanReport(lock_id=LOCK, sender=1, suspect=0, epoch=6)
    )
    fabric.drop(TokenProbe)
    scheduler.advance(config.probe_timeout)
    assert fabric.claims(4) == {7}
    automaton = coordinator.lockspace.automaton(LOCK)
    scheduler.advance(config.probe_timeout + config.regen_settle - 0.01)
    assert not automaton.has_token  # Claimed, not yet served from.
    scheduler.advance(config.probe_timeout + config.regen_settle)
    assert automaton.has_token and automaton.token_epoch == 7
    assert coordinator.regeneration.regenerations == [
        {"lock": LOCK, "epoch": 7, "node": 4}
    ]


def test_without_a_majority_the_coordinator_reprobes_and_never_claims():
    scheduler, fabric = build(5, RecoveryConfig(suspect_timeout=0.7))
    coordinator = fabric.managers[4]
    for tick in range(1, 13):  # Only node 1 is ever heard from.
        scheduler.advance(tick * 0.5)
        fabric.deliver(HeartbeatMessage, only_to=4, only_from=1)
        if tick == 2:
            assert coordinator.live() == [1, 4] and not coordinator.has_quorum()
            coordinator.handle(OrphanReport(lock_id=LOCK, sender=1, suspect=0))
    assert len(fabric.sent(TokenProbe, sender=4)) >= 5
    assert fabric.dests(TokenProbe) == [1] * len(fabric.sent(TokenProbe))
    assert fabric.claims(4) == set()
    # The cut heals: the next deadline finds a majority and claims.
    fabric.drop(TokenProbe)
    fabric.deliver(HeartbeatMessage, only_to=4)
    assert coordinator.has_quorum()
    scheduler.advance(6.0 + coordinator.config.probe_timeout)
    assert fabric.claims(4) == {1}


# -- leases ------------------------------------------------------------------


def test_a_quorum_silent_holder_fences_itself_before_a_peer_revokes():
    scheduler, fabric = build(3, leased=True)
    holder, peer = fabric.managers[1], fabric.managers[0]
    config = holder.config
    holder.request(LOCK, LockMode.R)
    fabric.deliver(SessionMessage, SessionAck)
    assert holder.leases.own.get(LOCK, 1) is not None
    revoked_at = None
    for tick in range(1, 25):
        scheduler.advance(tick * 0.5)
        if tick <= 4:
            fabric.deliver(HeartbeatMessage)  # Everyone hears everyone...
        else:
            fabric.drop(only_to=1)  # ...then node 1 is cut off.
            fabric.drop(only_from=1)
            fabric.deliver(HeartbeatMessage)
        if revoked_at is None and peer.events["lease-revoke"]:
            revoked_at = scheduler.now()
    # Last contact at 2.0: fenced one lease duration later, on its own.
    assert holder.leases.fenced_at == 2.0 + config.lease_duration
    # One fact, one field: ``fenced`` only reads it.
    assert holder.leases.fenced and not peer.leases.fenced
    with pytest.raises(AttributeError):
        holder.leases.fenced = False
    assert holder.lockspace.automaton(LOCK).held_modes == {}
    assert revoked_at == holder.leases.fenced_at + config.lease_revoke_margin
    assert peer.leases.remote.get(LOCK, 1) is None


# -- custody -----------------------------------------------------------------


@pytest.fixture
def restored():
    """Node 0 (of three), restarted from a journal that says it holds
    ``LOCK``'s token at epoch 0; custody fenced, probes out."""

    def boot(config=PATIENT, nodes=3):
        scheduler, fabric = build(nodes, config)
        before = fabric.managers[0]
        before.request(LOCK, LockMode.R)
        state = {LOCK: before.lockspace.automaton(LOCK).persisted_state()}
        before.stop()
        manager = add_manager(
            scheduler, fabric, 0, list(range(nodes)), config, boot=1,
            start=False,
        )
        report = manager.custody.rejoin_from_journal(state)
        manager.start()
        assert report["custody"] == [LOCK] and report["holds_released"] == 1
        assert manager.custody.pending() == [LOCK]
        assert manager.lockspace.automaton(LOCK).custody_pending
        return scheduler, fabric, manager

    return boot


def test_a_token_ack_of_the_restored_epoch_from_elsewhere_fences(restored):
    scheduler, fabric, manager = restored()
    manager.handle(TokenAck(lock_id=LOCK, sender=0, epoch=5))  # Its own echo.
    assert manager.custody.pending() == [LOCK]
    manager.handle(TokenAck(lock_id=LOCK, sender=2, epoch=0))
    automaton = manager.lockspace.automaton(LOCK)
    assert manager.custody.pending() == []
    assert manager.events["custody-fenced"] == 1
    assert not automaton.has_token and automaton.parent == 2
    assert manager.regeneration.hints[LOCK] == (2, 0)
    probes = len(fabric.sent(TokenProbe, sender=0))
    scheduler.advance(10.0)  # Both settle timers went with the state.
    assert len(fabric.sent(TokenProbe, sender=0)) == probes
    assert manager.events["custody-confirmed"] == 0


def test_silence_with_a_quorum_visible_confirms(restored):
    scheduler, fabric, manager = restored()
    settle = manager.config.rejoin_settle
    scheduler.advance(settle - 0.01)
    assert manager.custody.pending() == [LOCK]
    assert len(fabric.sent(TokenProbe, sender=0)) == 2 * 3  # 0, 0.5, 1.0.
    scheduler.advance(settle)
    automaton = manager.lockspace.automaton(LOCK)
    assert manager.events["custody-confirmed"] == 1
    assert automaton.has_token and not automaton.custody_pending
    assert fabric.claims(0) == {0}  # The settled placement, broadcast.


def test_without_a_quorum_custody_stays_fenced_and_keeps_probing(restored):
    scheduler, fabric, manager = restored(
        RecoveryConfig(suspect_timeout=0.7), nodes=5
    )
    settle, interval = manager.config.rejoin_settle, manager.config.orphan_interval
    for tick in range(1, 11):  # Only node 1 of the four peers is heard.
        scheduler.advance(tick * 0.5)
        fabric.deliver(HeartbeatMessage, only_to=0, only_from=1)
    assert manager.live() == [0, 1]
    assert manager.custody.pending() == [LOCK]
    # One probe round per orphan interval, also past the first settle
    # deadline (which used to silence the chain: one round per deadline).
    rounds = [m for m in fabric.log if isinstance(m[2], TokenProbe) and m[1] == 1]
    assert len(rounds) == 1 + int(5.0 / interval)
    fabric.deliver(HeartbeatMessage, only_to=0)  # The others are back.
    scheduler.advance(5.0 + settle)
    assert manager.events["custody-confirmed"] == 1


# -- the rule that keeps them layers -------------------------------------------

LAYERED = (
    "faults/recovery.py",
    "faults/regeneration.py",
    "faults/custody.py",
    "faults/channel.py",
    "faults/detector.py",
    "faults/scheduler.py",
    "leases/layer.py",
    "membership/layer.py",
    # The explorer clones and hashes automata through the contract only.
    "verification/explorer.py",
    "verification/invariants.py",
)


@pytest.mark.parametrize("module", LAYERED)
def test_no_layer_reaches_into_another_objects_private_state(module):
    """``<expr>._name`` is legal only on ``self`` / ``cls``: a layer is
    reached through its public methods, never through its fields."""

    path = pathlib.Path(repro.__file__).parent / module
    offences = [
        f"{module}:{node.lineno} {ast.unparse(node)}"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute)
        and node.attr.startswith("_")
        and not node.attr.startswith("__")
        and not (
            isinstance(node.value, ast.Name) and node.value.id in ("self", "cls")
        )
    ]
    assert offences == []
