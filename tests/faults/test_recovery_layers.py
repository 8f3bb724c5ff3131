"""The recovery stack, one layer at a time.

Each test builds :class:`~repro.faults.recovery.RecoveryManager` objects
directly over a hand-cranked scheduler and a fabric that delivers on
demand (``handcrank.py``): no simulator, no cluster host, and every
message and timer placed by the test.  One test per layer-level claim
of DESIGN.md §7, plus the static rule that keeps the layers layers.
"""

from __future__ import annotations

import ast
import itertools
import pathlib

import pytest

import repro
from repro.core.messages import GrantMessage, TokenMessage
from repro.core.modes import LockMode, conflicts
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
from repro.membership.messages import (
    JoinRequest,
    StateTransfer,
    ViewAck,
    ViewInstall,
    ViewProposal,
)

from .handcrank import Fabric, HandScheduler, add_manager, build

LOCK = "L"
#: Nobody is ever suspected: the test decides who is silent.
PATIENT = RecoveryConfig(suspect_timeout=1e6)


# -- membership ----------------------------------------------------------


def test_join_is_proposed_acked_by_a_quorum_installed_and_transferred():
    scheduler, fabric = build(3, PATIENT)
    sponsor = fabric.managers[0]
    sponsor.tokens.note_hint(LOCK, 1, 4)
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
    assert joiner.tokens.hints[LOCK] == (1, 4)
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
    # The frame is never delivered: it retries (at the 2 s cap while the
    # channel has no round trip learned).
    scheduler.advance(5.0)
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
    scheduler.advance(33.0)
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
    assert coordinator.tokens.regenerations == []


def _coordinated(*stopped):
    """Five members; only the coordinator, node 4, suspects (within a
    second of silence), and nodes *stopped* are down.  Returns
    ``(scheduler, fabric, grants)``."""

    scheduler, fabric, grants = HandScheduler(), Fabric(), []
    for node in range(5):
        config = QUICK if node == 4 else PATIENT
        add_manager(scheduler, fabric, node, list(range(5)), config, grants)
    for node in stopped:
        fabric.managers[node].stop()
    return scheduler, fabric, grants


def _beats_to_4_from(*senders):
    """A *hold* for :func:`_run_until` that delivers only the heartbeats
    *senders* send node 4."""

    return lambda entry: not (
        isinstance(entry[2], HeartbeatMessage)
        and entry[1] == 4
        and entry[0] in senders
    )


def _beats_with_4(*peers):
    """A *hold* that delivers only the heartbeats between node 4 and
    *peers*, both ways."""

    return lambda entry: not (
        isinstance(entry[2], HeartbeatMessage)
        and 4 in entry[:2]
        and set(entry[:2]) - {4} <= set(peers)
    )


def test_an_unanswered_probe_claims_the_next_epoch_and_serves_after_the_last_answer():
    scheduler, fabric, grants = _coordinated(0)  # The token home died.
    coordinator = fabric.managers[4]
    coordinator.handle(
        OrphanReport(lock_id=LOCK, sender=1, suspect=0, epoch=6)
    )
    # Every member is asked, node 0 too; the others answer, no token.
    assert fabric.dests(TokenProbe) == [0, 1, 2, 3]
    fabric.deliver(TokenProbe, TokenAck)
    assert fabric.claims(4) == set()  # Node 0 is silent, but trusted.
    beats = _beats_to_4_from(1, 2, 3)
    _run_until(scheduler, fabric, 1.5, beats)
    assert coordinator.detector.suspected == {0}
    assert fabric.claims(4) == {7}  # Above the floor node 1 reported.
    # Claimed means held, fenced: even our own request only queues.
    automaton = coordinator.lockspace.automaton(LOCK)
    assert automaton.has_token and automaton.custody_pending
    coordinator.request(LOCK, LockMode.R)
    fabric.deliver(ReparentMessage, CustodyProbe)  # Every member re-homes.
    assert sorted(set(fabric.dests(CustodyProbe))) == [1, 2, 3]
    for member in (1, 2):
        fabric.deliver(SessionMessage, SessionAck, only_from=member)
    _run_until(scheduler, fabric, 60.0, beats)  # No timer serves it...
    assert automaton.custody_pending and grants == []
    assert coordinator.tokens.regenerations == []
    fabric.deliver(SessionMessage, SessionAck, only_from=3)  # ...answers do.
    assert automaton.has_token and automaton.token_epoch == 7
    assert not automaton.custody_pending
    assert grants == [(4, LOCK, LockMode.R)]
    assert coordinator.tokens.regenerations == [
        {"lock": LOCK, "epoch": 7, "node": 4}
    ]


@pytest.mark.parametrize("excused_by", ["answer", "suspicion"])
def test_a_majority_answered_waits_for_the_silent_member_it_trusts(excused_by):
    """Nodes 1 and 2 answer (with node 4, three of five); node 3 is alive
    to the coordinator but its probes are lost.  Time alone does not
    claim: node 3's answer does, or its suspicion."""

    scheduler, fabric, _grants = _coordinated(0)
    coordinator = fabric.managers[4]
    coordinator.handle(OrphanReport(lock_id=LOCK, sender=1, suspect=0))
    fabric.deliver(TokenProbe, TokenAck, only_to=1)
    fabric.deliver(TokenProbe, TokenAck, only_to=2)
    fabric.deliver(TokenAck, only_to=4)
    fabric.drop(TokenProbe, only_to=3)
    _run_until(scheduler, fabric, 10.0, _beats_to_4_from(1, 2, 3))
    assert coordinator.detector.suspected == {0}
    assert fabric.claims(4) == set()
    # Still asking the two silent members, and only them.
    asked = [d for _s, d, m in fabric.parked if isinstance(m, TokenProbe)]
    assert sorted(set(asked)) == [0, 3] and len(asked) >= 2 * 18
    if excused_by == "answer":
        fabric.deliver(TokenProbe, TokenAck, only_to=3)
        fabric.deliver(TokenAck, only_to=4)
        assert scheduler.now() == 10.0
    else:
        # Node 3 depends on nobody here, so its beats to node 4 promise
        # the sweep's gap: it is suspected that much later.
        horizon = 10.0 + coordinator.detector.tolerance(3) + 0.5
        _run_until(scheduler, fabric, horizon, _beats_to_4_from(1, 2))
        assert coordinator.detector.suspected == {0, 3}
    assert fabric.claims(4) == {1}


def test_a_suspected_holder_that_answers_is_announced_not_claimed_over():
    scheduler, fabric, _grants = _coordinated()
    coordinator = fabric.managers[4]
    # Node 0 holds the token, but its beats never reach the coordinator.
    _run_until(scheduler, fabric, 1.5, _beats_to_4_from(1, 2, 3))
    assert coordinator.detector.suspected == {0}
    coordinator.handle(OrphanReport(lock_id=LOCK, sender=1, suspect=0))
    assert fabric.dests(TokenProbe) == [0, 1, 2, 3]  # The suspect too.
    fabric.deliver(TokenProbe)
    fabric.deliver(TokenAck, only_from=0)  # The suspect's answer first.
    assert coordinator.detector.suspected == set()
    fabric.deliver(TokenAck)
    # The coordinator's beats reach node 0 now too: it learns that the
    # coordinator depends on it (its lock's parent) and beats it every
    # interval, as a live parent does.
    _run_until(scheduler, fabric, 10.0, _beats_with_4(0, 1, 2, 3))
    placements = [
        (dest, m.parent)
        for s, dest, m in fabric.log
        if isinstance(m, ReparentMessage) and s == 4
    ]
    assert placements == [(1, 0)]
    assert fabric.claims(4) == set()
    assert coordinator.tokens.regenerations == []
    assert fabric.managers[0].lockspace.automaton(LOCK).has_token


def test_a_settled_loss_that_recurs_is_claimed_after_one_more_round():
    """Node 1 is suspected while node 0 holds the token, and node 0's
    answer settles the probe.  The token then moves to node 1, which
    dies with it.  The settled answer buys one more round of answers,
    not every round: node 0 truthfully says "not here" and the
    coordinator claims."""

    scheduler, fabric, grants = _coordinated()
    coordinator = fabric.managers[4]
    cut = lambda entry: entry[:2] == (1, 4)  # Node 1 never reaches node 4.
    _run_until(scheduler, fabric, 1.5, cut)
    assert coordinator.detector.suspected == {1}
    coordinator.handle(OrphanReport(lock_id=LOCK, sender=2, suspect=1))
    fabric.deliver_all(cut)  # Node 0 answers that it holds the token.
    assert coordinator.tokens.regenerations == []
    # The token moves to node 1, and node 1 crashes with it.
    fabric.managers[1].request(LOCK, LockMode.W)
    fabric.deliver_all(cut)
    assert grants == [(1, LOCK, LockMode.W)]
    assert fabric.managers[1].lockspace.automaton(LOCK).has_token
    fabric.managers[1].stop()
    sent = len(fabric.log)
    coordinator.handle(OrphanReport(lock_id=LOCK, sender=2, suspect=1))
    fabric.deliver_all(cut)
    # Nodes 0, 2 and 3 answer "not here": that is the round the settled
    # answer buys...
    assert fabric.claims(4) == set()
    # ...and the re-sent probe's answers claim the next epoch.
    _run_until(scheduler, fabric, scheduler.now() + 2.0, cut)
    assert fabric.claims(4) == {1}
    asked = [d for _s, d, m in fabric.log[sent:] if type(m) is TokenProbe]
    assert sorted(asked) == [0, 0, 1, 1, 2, 2, 3, 3]
    assert coordinator.tokens.regenerations == [
        {"lock": LOCK, "epoch": 1, "node": 4}
    ]


def test_without_a_majority_the_coordinator_reprobes_and_never_claims():
    scheduler, fabric = build(5, RecoveryConfig(suspect_timeout=0.7))
    coordinator = fabric.managers[4]
    for tick in range(1, 13):  # Only node 1 is ever heard from.
        scheduler.advance(tick * 0.5)
        fabric.deliver(HeartbeatMessage, only_to=4, only_from=1)
        if tick == 2:
            assert coordinator.live() == [1, 4]
            coordinator.handle(OrphanReport(lock_id=LOCK, sender=1, suspect=0))
            # Node 1 answers: two of five.
            fabric.deliver(TokenProbe, only_from=4, only_to=1)
            fabric.deliver(TokenAck, only_to=4)
    # Every round asks every silent member, suspects included.
    asked = [
        d for s, d, m in fabric.log if isinstance(m, TokenProbe) and s == 4
    ]
    assert len(asked) >= 4 + 3 * 10 and set(asked) == {0, 1, 2, 3}
    assert fabric.claims(4) == set()
    # The cut heals for node 2: its answer makes three of five, and the
    # rest are suspected.  No heartbeat was needed, nor a timer.
    fabric.deliver(TokenProbe, only_from=4, only_to=2)
    fabric.deliver(TokenAck, only_to=4, only_from=2)
    assert coordinator.live() == [1, 2, 4]
    assert fabric.claims(4) == {1}


@pytest.mark.xfail(
    strict=True,
    reason="a claim counts answers given at different instants: a token "
    "in flight between two members that both answered 'not here' reads "
    "as lost, and the fence excuses its receiver once that is suspected "
    "(ROADMAP 1(d)(viii))",
)
def test_a_token_in_flight_past_two_not_here_answers_is_not_claimed_over():
    """The shape of ``chaos --plan partition --seed 34``.  Node 4 sends
    the epoch-0 token to node 1; both answer node 3's probe "not here",
    node 1 just before the token lands, and node 1 grants itself W.
    Node 3 claims epoch 1 on those answers; node 1 is cut off from then
    on, and node 3's fence excuses it once it is suspected."""

    scheduler, fabric, grants = HandScheduler(), Fabric(), []
    for node in range(5):
        config = QUICK if node == 3 else PATIENT
        add_manager(scheduler, fabric, node, list(range(5)), config, grants)
    managers = fabric.managers
    managers[4].request(LOCK, LockMode.W)  # The token moves to node 4.
    fabric.deliver_all(lambda entry: False)
    managers[4].release(LOCK, LockMode.W)
    managers[1].request(LOCK, LockMode.W)
    token = lambda entry: entry[:2] == (4, 1)
    fabric.deliver_all(token)  # Node 4 sends node 1 the token: parked.
    # Node 0 lost its parent, node 4, and reports to node 3.
    managers[3].handle(OrphanReport(lock_id=LOCK, sender=0, suspect=4))
    fabric.deliver(TokenProbe)  # Every member answers "not here"...
    fabric.deliver_all(lambda entry: not token(entry))  # ...then it lands.
    assert grants[-1] == (1, LOCK, LockMode.W)
    cut = lambda entry: 1 in entry[:2]
    fabric.deliver(TokenAck, only_from=1)  # Node 1's last word.
    fabric.deliver_all(cut)
    assert fabric.claims(3) == {1}
    horizon = scheduler.now() + managers[3].detector.tolerance(1) + 1.0
    _run_until(scheduler, fabric, horizon, cut)
    managers[3].request(LOCK, LockMode.IW)
    fabric.deliver_all(cut)
    held = [
        (node, mode)
        for node, manager in sorted(managers.items())
        for mode, count in manager.lockspace.automaton(LOCK).held_modes.items()
        if count
    ]
    assert not any(
        conflicts(left, right)
        for (_a, left), (_b, right) in itertools.combinations(held, 2)
    ), held


# -- regeneration: the fence against the dead root's survivors ---------------

#: Node 0 is suspected within two beats of its death.
QUICK = RecoveryConfig(suspect_timeout=1.0)


def _dead_root(configs=(QUICK, QUICK, QUICK)):
    """Three nodes: node 1 holds R under root 0 (which holds R too, so
    the token stays there), node 2 waits there for W; then node 0 dies.
    Returns ``(scheduler, fabric, grants)``."""

    scheduler, fabric, grants = HandScheduler(), Fabric(), []
    for node, config in enumerate(configs):
        add_manager(scheduler, fabric, node, [0, 1, 2], config, grants)
    for node, mode in ((0, LockMode.R), (1, LockMode.R), (2, LockMode.W)):
        fabric.managers[node].request(LOCK, mode)
        fabric.deliver(SessionMessage, SessionAck)
    assert grants == [(0, LOCK, LockMode.R), (1, LOCK, LockMode.R)]
    assert fabric.managers[0].lockspace.automaton(LOCK).children == {
        1: LockMode.R
    }
    del grants[0]
    fabric.managers[0].stop()
    return scheduler, fabric, grants


def _run_until(scheduler, fabric, until, hold=lambda entry: False):
    """Crank time to *until* a quarter second at a time, delivering all
    but what *hold* keeps back."""

    while scheduler.now() < until:
        scheduler.advance(scheduler.now() + 0.25)
        fabric.deliver_all(hold)


def _run_to_claim(scheduler, fabric, hold):
    """Crank until node 2 claims (well inside 10 s); the claim's time."""

    while not fabric.claims(2):
        assert scheduler.now() < 10.0, "node 2 never claimed"
        _run_until(scheduler, fabric, scheduler.now() + 0.25, hold)
    return scheduler.now()


def _frames(fabric, sender, dest):
    """What *sender*'s session stream to *dest* carried, in send order."""

    return [
        m.payload
        for s, d, m in fabric.log
        if isinstance(m, SessionMessage) and (s, d) == (sender, dest)
    ]


def _from_1_to_2(entry):
    return entry[:2] == (1, 2) and isinstance(entry[2], SessionMessage)


def test_a_parked_reassertion_keeps_the_regenerated_token_fenced():
    scheduler, fabric, grants = _dead_root()
    claimant = fabric.managers[2]
    automaton = claimant.lockspace.automaton(LOCK)
    # Node 1's stream to the claimant is parked from here on.
    claimed = _run_to_claim(scheduler, fabric, _from_1_to_2)
    # Where the settle timer (1.5 s by default) used to start serving,
    # and well past it: nothing is granted.
    _run_until(scheduler, fabric, claimed + 1.5 + 5.0, _from_1_to_2)
    assert automaton.custody_pending and grants == [(1, LOCK, LockMode.R)]
    assert CustodyAnswer in {type(p) for p in _frames(fabric, 1, 2)}
    fabric.deliver_all(lambda entry: False)  # The frames land.
    # Served — from a copyset that has node 1's R, so W still waits.
    assert not automaton.custody_pending
    assert automaton.children == {1: LockMode.R}
    assert grants == [(1, LOCK, LockMode.R)]
    fabric.managers[1].release(LOCK, LockMode.R)
    fabric.deliver_all(lambda entry: False)
    assert grants == [(1, LOCK, LockMode.R), (2, LOCK, LockMode.W)]


def test_an_answer_that_overtakes_the_reassertion_does_not_lift_the_fence():
    scheduler, fabric, grants = _dead_root()
    claimant = fabric.managers[2]
    automaton = claimant.lockspace.automaton(LOCK)
    claimed = _run_to_claim(scheduler, fabric, _from_1_to_2)
    _run_until(scheduler, fabric, claimed + 0.25, _from_1_to_2)
    (answer, *_resent) = [
        entry
        for entry in fabric.parked
        if _from_1_to_2(entry) and isinstance(entry[2].payload, CustodyAnswer)
    ]
    fabric.parked.remove(answer)
    claimant.handle(answer[2])  # Ahead of node 1's re-assertion...
    assert automaton.custody_pending  # ...so the stream holds it back.
    assert 1 not in automaton.children
    fabric.deliver_all(lambda entry: False)
    assert not automaton.custody_pending
    assert automaton.children == {1: LockMode.R}
    assert grants == [(1, LOCK, LockMode.R)]


def test_a_member_that_trusts_the_dead_root_answers_only_once_rehomed():
    # Node 1 never suspects node 0: the claim finds it still attached.
    scheduler, fabric, grants = _dead_root((QUICK, PATIENT, QUICK))
    member = fabric.managers[1].lockspace.automaton(LOCK)
    claimant = fabric.managers[2].lockspace.automaton(LOCK)
    _run_to_claim(
        scheduler, fabric, lambda entry: isinstance(entry[2], CustodyProbe)
    )
    # The claim alone moves node 1's floor, not its parent, and draws
    # no answer.
    fabric.deliver(ReparentMessage)
    assert member.token_epoch == 1 and member.parent == 0
    assert CustodyAnswer not in {type(p) for p in _frames(fabric, 1, 2)}
    assert claimant.custody_pending
    fabric.deliver(CustodyProbe, only_to=1)
    # Re-homed first, re-asserting R; the answer rides behind it.
    assert member.parent == 2
    kinds = [
        (type(p).__name__, getattr(p, "new_mode", None))
        for p in _frames(fabric, 1, 2)
    ]
    assert kinds == [
        ("ReleaseMessage", LockMode.R),
        ("CustodyAnswer", None),
    ]
    assert claimant.custody_pending
    fabric.deliver_all(lambda entry: False)
    assert not claimant.custody_pending
    assert claimant.children == {1: LockMode.R}
    assert grants == [(1, LOCK, LockMode.R)]


def test_of_two_claims_at_one_epoch_only_the_lower_holder_demotes():
    grants = []
    scheduler, fabric = build(3, PATIENT, grants)
    for node in (1, 2):  # Two coordinators, each sure the token died.
        fabric.managers[node].tokens.take(LOCK, 1, "regen")
    fabric.deliver_all(lambda entry: False)
    tokens = {
        node: manager.lockspace.automaton(LOCK)
        for node, manager in fabric.managers.items()
    }
    assert [n for n, a in tokens.items() if a.has_token] == [2]
    assert tokens[1].parent == 2 and tokens[0].parent == 2
    assert not tokens[2].custody_pending  # Both others answered it.
    assert fabric.managers[1].events["custody-fenced"] == 1
    assert fabric.managers[2].events["custody-fenced"] == 0
    assert fabric.managers[2].tokens.regenerations == [
        {"lock": LOCK, "epoch": 1, "node": 2}
    ]
    assert fabric.managers[1].tokens.regenerations == []


# -- requests re-sent when a path breaks -------------------------------------


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP 1(d)(x): a re-home after a false suspicion re-forwards "
    "a request its live old parent still queues, and both copies are "
    "answered (two token transfers to node 2)",
)
def test_a_request_re_sent_at_a_false_suspicion_is_answered_once():
    """Node 2's R waits at node 1, its parent, behind node 1's own W.
    Node 2 falsely suspects node 1, re-homes under the token at node 0
    and re-forwards the request there, where it is served.  Node 1 is
    alive and still holds the first copy: once its W is done, it serves
    that copy too."""

    scheduler, fabric, grants = HandScheduler(), Fabric(), []
    for node in range(4):
        config = QUICK if node == 2 else PATIENT
        add_manager(scheduler, fabric, node, list(range(4)), config, grants)
    automata = [m.lockspace.automaton(LOCK) for m in fabric.managers.values()]

    def step(node, call, mode, hold=lambda entry: False):
        getattr(fabric.managers[node], call)(LOCK, mode)
        fabric.deliver_all(
            lambda e: hold(e) or not isinstance(e[2], (SessionMessage, SessionAck))
        )

    # The token passes 0 -> 2 -> 1 -> 0: node 2 ends under node 1, and
    # node 1 under the holder, node 0, which keeps W.
    for node, call in (
        (2, "request"), (2, "release"), (1, "request"), (0, "request"),
        (1, "release"),
    ):
        step(node, call, LockMode.W)
    assert automata[2].parent == 1 and automata[0].has_token
    to_0 = lambda entry: entry[:2] == (1, 0)  # noqa: E731
    step(1, "request", LockMode.W, to_0)  # Still on its way to node 0.
    step(2, "request", LockMode.R, to_0)  # Queued at node 1 (Rule 4.1).
    step(0, "release", LockMode.W, to_0)
    assert [q.origin for q in automata[1].queued_requests] == [2]
    cut = lambda entry: to_0(entry) or entry[:2] == (1, 2)  # noqa: E731
    _run_until(scheduler, fabric, 3.5, cut)
    assert fabric.managers[2].detector.suspected == {1}
    assert automata[2].has_token and grants[-1] == (2, LOCK, LockMode.R)
    _run_until(scheduler, fabric, 5.0)  # The suspicion was false.
    step(2, "release", LockMode.R)
    step(1, "release", LockMode.W)
    (request,) = {
        m.payload.request_id
        for s, _d, m in fabric.log
        if s == 2
        and isinstance(m, SessionMessage)
        and getattr(m.payload, "mode", None) is LockMode.R
        and not isinstance(m.payload, (GrantMessage, TokenMessage))
    }
    answers = [
        (sender, type(m.payload).__name__)
        for sender, _d, m in fabric.log
        if isinstance(m, SessionMessage)
        and isinstance(m.payload, (GrantMessage, TokenMessage))
        and m.payload.request_id == request
    ]
    assert answers == [(0, "TokenMessage")]


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


def test_an_empty_beat_reaches_the_mirror_only_if_its_sender_is_mirrored(
    monkeypatch,
):
    scheduler, fabric = build(3, PATIENT)
    manager = fabric.managers[0]
    leases, observed, caught_up = manager.leases, [], []
    observe = leases.remote.observe
    monkeypatch.setattr(
        leases.remote,
        "observe",
        lambda holder, rows, now: observed.append(holder)
        or observe(holder, rows, now),
    )
    monkeypatch.setattr(manager.membership, "catch_up", caught_up.append)
    # Nothing of node 1 mirrored: the mirror is skipped, the view
    # epoch is still checked.
    leases.on_heartbeat(HeartbeatMessage(lock_id="", sender=1, view_epoch=-1))
    assert observed == [] and caught_up == [1]
    assert len(leases.remote) == 0 and leases.renewals_received == 0
    leases.on_heartbeat(
        HeartbeatMessage(lock_id="", sender=2, leases=((LOCK, "R", 2, 7),))
    )
    assert leases.remote.mirrors(2) and leases.renewals_received == 1
    leases.on_heartbeat(HeartbeatMessage(lock_id="", sender=1))
    # Node 2 released everything: its empty beat must still drop it.
    leases.on_heartbeat(HeartbeatMessage(lock_id="", sender=2))
    assert observed == [2, 2]
    assert not leases.remote.mirrors(2) and len(leases.remote) == 0
    assert leases.renewals_received == 1


def test_tick_fanout_and_quorum_agree_with_counting_every_member(monkeypatch):
    """Every set of silent peers of a five-member view, plus a tracked
    non-member that may be suspected too."""

    for size in range(6):
        for silent in itertools.combinations((1, 2, 3, 4, 9), size):
            scheduler, fabric = build(5, RecoveryConfig(suspect_timeout=1.0))
            manager = fabric.managers[0]
            detector, view = manager.detector, manager.membership.view
            detector.add_peer(9, 0.0)
            for peer in {1, 2, 3, 4, 9} - set(silent):
                detector.beat(peer, 10.0)
            detector.check(10.0)
            assert detector.suspected == set(silent)
            fanouts = []
            monkeypatch.setattr(
                manager.leases,
                "advertise",
                lambda now, fanout: fanouts.append(fanout) or (),
            )
            manager._heartbeat_tick()
            peers = [n for n in view.members if n != 0]
            assert fanouts == [sum(1 for n in peers if n not in silent)]
            heard = sum(
                1
                for n in peers
                if 10.0 - detector.last_seen(n) < manager.config.lease_duration
            )
            assert manager.leases._quorum_heard(10.0) == (
                heard >= view.quorum() - 1
            )


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
        report = manager.tokens.rejoin_from_journal(state)
        manager.start()
        assert report["custody"] == [LOCK] and report["holds_released"] == 1
        assert manager.tokens.pending() == [LOCK]
        assert manager.lockspace.automaton(LOCK).custody_pending
        return scheduler, fabric, manager

    return boot


def test_a_token_ack_of_the_restored_epoch_from_elsewhere_fences(restored):
    scheduler, fabric, manager = restored()
    manager.handle(TokenAck(lock_id=LOCK, sender=0, epoch=5, holds=True))
    assert manager.tokens.pending() == [LOCK]  # Its own echo.
    manager.handle(TokenAck(lock_id=LOCK, sender=2, epoch=0))
    assert manager.tokens.pending() == [LOCK]  # Not a holder's answer.
    manager.handle(TokenAck(lock_id=LOCK, sender=2, epoch=0, holds=True))
    automaton = manager.lockspace.automaton(LOCK)
    assert manager.tokens.pending() == []
    assert manager.events["custody-fenced"] == 1
    assert not automaton.has_token and automaton.parent == 2
    assert manager.tokens.hints[LOCK] == (2, 0)
    probes = len(fabric.sent(TokenProbe, sender=0))
    scheduler.advance(10.0)  # Both settle timers went with the state.
    assert len(fabric.sent(TokenProbe, sender=0)) == probes
    assert manager.events["custody-confirmed"] == 0


def test_a_restored_token_serves_right_after_the_last_answer(restored):
    scheduler, fabric, manager = restored()
    automaton = manager.lockspace.automaton(LOCK)
    assert fabric.dests(CustodyProbe) == [1, 2]
    fabric.deliver(CustodyProbe, only_to=1)
    fabric.deliver(SessionMessage, SessionAck, only_from=1)
    assert manager.tokens.pending() == [LOCK]  # Node 2 is still silent.
    fabric.deliver(CustodyProbe, only_to=2)
    fabric.deliver(SessionMessage, SessionAck, only_from=2)
    assert scheduler.now() == 0.0  # Well inside the silence window.
    assert manager.tokens.pending() == []
    assert manager.events["custody-confirmed"] == 1
    assert automaton.has_token and not automaton.custody_pending
    assert fabric.claims(0) == {0}
    probes = len(fabric.sent(TokenProbe, sender=0))
    scheduler.advance(10.0)  # Both timers went with the fence.
    assert len(fabric.sent(TokenProbe, sender=0)) == probes
    assert manager.events["custody-confirmed"] == 1


def test_without_a_quorum_custody_stays_fenced_and_keeps_probing(restored):
    scheduler, fabric, manager = restored(
        RecoveryConfig(suspect_timeout=0.7), nodes=5
    )
    settle, interval = manager.config.rejoin_settle, manager.config.orphan_interval
    for tick in range(1, 11):  # Only node 1 of the four peers is heard.
        scheduler.advance(tick * 0.5)
        fabric.deliver(HeartbeatMessage, only_to=0, only_from=1)
    assert manager.live() == [0, 1]
    assert manager.tokens.pending() == [LOCK]
    # One probe round per orphan interval, also past the first settle
    # deadline (which used to silence the chain: one round per deadline).
    rounds = [m for m in fabric.log if isinstance(m[2], TokenProbe) and m[1] == 1]
    assert len(rounds) == 1 + int(5.0 / interval)
    # Node 2 is back: beats alone, past the silence window, serve nothing.
    for tick in range(11, 11 + int(2 * settle / 0.5)):
        scheduler.advance(tick * 0.5)
        fabric.deliver(HeartbeatMessage, only_to=0, only_from=1)
        fabric.deliver(HeartbeatMessage, only_to=0, only_from=2)
    assert manager.live() == [0, 1, 2]
    assert manager.tokens.pending() == [LOCK]
    assert manager.events["custody-confirmed"] == 0
    # Their answers: three of five, and nodes 3 and 4 are suspected.
    for member in (1, 2):
        fabric.deliver(CustodyProbe, only_to=member)
        fabric.deliver(SessionMessage, SessionAck, only_from=member)
    assert manager.tokens.pending() == []
    assert manager.events["custody-confirmed"] == 1


@pytest.mark.parametrize("learns_by", ["hint", "answer"])
def test_a_reborn_home_token_yields_to_the_lineage_and_never_grants(
    learns_by,
):
    # Before the restart the lineage moved on: regenerated at epoch 1
    # by node 2, then handed to node 1 with its R.
    grants = []
    scheduler, fabric = build(3, PATIENT, grants)
    fabric.managers[2].tokens.take(LOCK, 1, "regen")
    fabric.deliver_all(lambda entry: False)
    fabric.managers[1].request(LOCK, LockMode.R)
    fabric.deliver_all(lambda entry: False)
    assert grants == [(1, LOCK, LockMode.R)]
    assert fabric.managers[1].lockspace.automaton(LOCK).has_token
    fabric.managers[0].stop()
    home = add_manager(
        scheduler, fabric, 0, [0, 1, 2], PATIENT, grants, boot=1
    )
    # Blank: the first touch re-creates the lock with the home's token.
    home.request(LOCK, LockMode.W)
    automaton = home.lockspace.automaton(LOCK)
    assert automaton.has_token and automaton.custody_pending
    assert home.tokens.pending() == [LOCK]
    assert grants == [(1, LOCK, LockMode.R)]
    if learns_by == "hint":  # A peer replays the placement it knows.
        home.handle(
            ReparentMessage(lock_id=LOCK, sender=2, parent=1, epoch=1)
        )
    else:  # The home's own probe: node 1 answers that it holds.
        fabric.deliver(TokenProbe, only_to=1)
        fabric.deliver(TokenAck, only_from=1)
    assert not automaton.has_token and automaton.parent == 1
    assert home.events["custody-fenced"] == 1 and home.tokens.pending() == []
    fabric.deliver_all(lambda entry: False)
    _run_until(scheduler, fabric, 10.0)
    assert grants == [(1, LOCK, LockMode.R)]  # W waits behind R at node 1.
    assert fabric.claims(0) == set()
    fabric.managers[1].release(LOCK, LockMode.R)
    fabric.deliver_all(lambda entry: False)
    assert grants == [(1, LOCK, LockMode.R), (0, LOCK, LockMode.W)]


def test_a_never_used_reborn_home_lock_serves_once_the_answers_are_in():
    grants = []
    scheduler, fabric = build(3, PATIENT, grants)
    fabric.managers[0].stop()  # The token home restarts blank.
    home = add_manager(
        scheduler, fabric, 0, [0, 1, 2], PATIENT, grants, boot=1
    )
    home.request(LOCK, LockMode.W)
    assert grants == [] and home.tokens.pending() == [LOCK]
    assert fabric.dests(TokenProbe) == [1, 2]
    fabric.deliver(TokenProbe, only_to=1)
    fabric.deliver(TokenAck, only_from=1)
    assert grants == [] and fabric.claims(0) == set()  # Node 2 is silent.
    fabric.deliver_all(lambda entry: False)
    # Nobody holds it: claimed at the next epoch, served on the answers.
    automaton = home.lockspace.automaton(LOCK)
    assert fabric.claims(0) == {1} and automaton.token_epoch == 1
    assert not automaton.custody_pending and home.tokens.pending() == []
    assert grants == [(0, LOCK, LockMode.W)]
    assert scheduler.now() == 0.0  # No timer decided it.


# -- the rule that keeps them layers -------------------------------------------

LAYERED = (
    "faults/recovery.py",
    "faults/tokens.py",
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


# -- a restart inside the suspect timeout ----------------------------------


def _copy_held_by_1(leased):
    """Node 1 holds a copy of R under node 0's token (node 0 holds R
    too, so the token stays), mirrored there when *leased*.  Returns
    node 0's manager."""

    scheduler, fabric = build(3, PATIENT, leased=leased)
    fabric.managers[0].request(LOCK, LockMode.R)
    fabric.managers[1].request(LOCK, LockMode.R)
    for tick in range(1, 5):
        scheduler.advance(tick * 0.5)
        fabric.deliver_all(lambda entry: False)
    home = fabric.managers[0]
    assert home.lockspace.automaton(LOCK).children == {1: LockMode.R}
    assert bool(home.leases.remote.mirrors(1)) is leased
    return home


def _reborn(rows=()):
    """The first beat of node 1's next incarnation."""

    return HeartbeatMessage(lock_id="", sender=1, boot=1, seq=1, leases=rows)


def test_a_restart_evicts_the_old_incarnations_copyset_entry():
    home = _copy_held_by_1(leased=False)
    home.handle(_reborn())
    assert home.lockspace.automaton(LOCK).children == {}


def test_a_leased_entry_waits_for_the_new_incarnations_advertisement():
    home = _copy_held_by_1(leased=True)
    rows = tuple(
        tuple(row[:4]) for row in home.leases.remote.export() if row[2] == 1
    )
    home.handle(_reborn(rows))      # a durable restart that reclaimed it
    assert home.lockspace.automaton(LOCK).children == {1: LockMode.R}
    home = _copy_held_by_1(leased=True)
    home.handle(_reborn())          # a blank one: nothing advertised
    assert home.lockspace.automaton(LOCK).children == {}
