"""Transitions of the hierarchical automaton that no seeded run reaches.

Each test restores one node into a hand-built state with
``restore_flight_state`` and pins everything one call leaves behind:
the envelopes, the holds, the queue and the pending request.  The
branches are rare (stale duplicates, demotion with an upgrade queued,
custody lost with disowned entries queued), so only a direct test keeps
a refactor of the queue, service and re-forward paths honest there.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.core.automaton import HierarchicalLockAutomaton, ProtocolOptions
from repro.core.clock import LamportClock
from repro.core.messages import (
    Envelope,
    FreezeMessage,
    GrantMessage,
    ReleaseMessage,
    RequestId,
    RequestMessage,
)
from repro.core.modes import LockMode
from repro.errors import ProtocolError

RECOVERY = ProtocolOptions(recovery=True)


def restored(options=RECOVERY, **state):
    """Node 0's automaton of lock ``L``, restored into *state* (Python
    values by ``STATE`` key; unnamed keys keep a blank token node's),
    and the list its grants land in."""

    grants = []
    automaton = HierarchicalLockAutomaton(
        node_id=0,
        lock_id="L",
        clock=LamportClock(),
        parent=None,
        has_token=True,
        listener=lambda lock, mode, ctx: grants.append((mode, ctx)),
        options=options,
    )
    payload = automaton.flight_state()
    codecs = {key: codec for key, _attr, codec, _durable in automaton.STATE}
    payload.update({key: codecs[key].encode(value) for key, value in state.items()})
    automaton.restore_flight_state(payload)
    return automaton, grants


def request(origin, serial, mode, upgrade=False, sender=None):
    return RequestMessage(
        lock_id="L",
        sender=origin if sender is None else sender,
        origin=origin,
        mode=mode,
        request_id=RequestId(timestamp=serial, origin=origin, serial=serial),
        upgrade=upgrade,
    )


def forwarded(entry, dest):
    """*entry* as node 0 forwards it to *dest*."""

    return Envelope(dest, dataclasses.replace(entry, sender=0))


def release(dest, mode, seq):
    return Envelope(
        dest,
        ReleaseMessage(lock_id="L", sender=0, new_mode=mode, attachment_seq=seq),
    )


def test_check_queue_drops_a_stale_upgrade_head_and_serves_on():
    stale_upgrade = request(0, 11, LockMode.W, upgrade=True)
    reader = request(2, 12, LockMode.IR)
    automaton, grants = restored(
        held={LockMode.U: 1},
        children={1: LockMode.IR},
        child_seqs={1: 5},
        queue=[stale_upgrade, reader],
        frozen=frozenset({LockMode.IR, LockMode.R}),
    )
    # The last child leaves, so the swap looks possible; but nothing is
    # pending, so the upgrade head is a stale duplicate: dropped.
    out = automaton.handle(
        ReleaseMessage(
            lock_id="L", sender=1, new_mode=LockMode.NONE, attachment_seq=5
        )
    )
    seq = automaton.child_attachment_seq(2)
    assert out == [
        Envelope(
            2,
            GrantMessage(
                lock_id="L",
                sender=0,
                mode=LockMode.IR,
                request_id=reader.request_id,
                frozen=frozenset({LockMode.IR, LockMode.R}),
                attachment_seq=seq,
            ),
        ),
        Envelope(2, FreezeMessage(lock_id="L", sender=0, frozen=frozenset())),
    ]
    assert automaton.held_modes == {LockMode.U: 1}
    assert automaton.queued_requests == ()
    assert automaton.pending_mode is LockMode.NONE
    assert automaton.children == {2: LockMode.IR}
    assert grants == []


def test_token_refuses_an_echo_of_its_own_settled_request():
    echo = request(0, 11, LockMode.R, sender=1)
    # Without recovery an echo cannot happen: the token node has lost
    # track of its own request.
    automaton, grants = restored(options=ProtocolOptions())
    with pytest.raises(ProtocolError, match="lost track of its own request"):
        automaton.handle(echo)
    # Under recovery the echo of a request no longer pending, or of a
    # different one than the pending one, is settled: nothing happens.
    own = request(0, 12, LockMode.W)
    for pending in (None, own):
        automaton, grants = restored(
            pending=pending, queue=[own] if pending else []
        )
        before = automaton.flight_state()
        assert automaton.handle(echo) == []
        assert automaton.flight_state() == before
        assert automaton.held_modes == {}
        assert grants == []


def test_demotion_keeps_a_queued_upgrade_and_forwards_the_rest():
    upgrade = request(0, 11, LockMode.W, upgrade=True)
    reader = request(3, 12, LockMode.R)
    automaton, grants = restored(
        held={LockMode.U: 1},
        queue=[upgrade, reader],
        pending=upgrade,
        token_epoch=2,
    )
    out = automaton.observe_epoch(4, token_holder=2)
    assert out == [
        release(2, LockMode.U, automaton.flight_state()["attach_seq"]),
        forwarded(reader, 2),
    ]
    assert not automaton.has_token
    assert automaton.parent == 2
    assert automaton.token_epoch == 4
    assert automaton.held_modes == {LockMode.U: 1}
    assert automaton.queued_requests == (upgrade,)
    assert automaton.pending_mode is LockMode.W
    assert grants == []


def test_custody_fence_drops_own_and_upgrade_entries():
    own = request(0, 11, LockMode.W)
    foreign_upgrade = request(3, 12, LockMode.W, upgrade=True)
    reader = request(4, 13, LockMode.IR)
    automaton, grants = restored(
        held={LockMode.R: 1},
        children={1: LockMode.IR},
        child_seqs={1: 5},
        queue=[own, foreign_upgrade, reader],
        custody_pending=True,
        token_epoch=2,
    )
    out = automaton.fence_custody(6, 2)
    assert out == [
        release(2, LockMode.R, automaton.flight_state()["attach_seq"]),
        forwarded(reader, 2),
    ]
    assert not automaton.has_token
    assert not automaton.custody_pending
    assert automaton.parent == 2
    assert automaton.token_epoch == 6
    assert automaton.children == {}
    assert automaton.held_modes == {LockMode.R: 1}
    assert automaton.queued_requests == ()
    assert automaton.pending_mode is LockMode.NONE
    assert grants == []


def test_a_regenerated_root_refuses_a_grant_of_the_old_tree():
    # Node 0 waits for IW under node 4 when it regenerates the token;
    # node 4's grant of that request then arrives from the old tree.
    own = request(0, 11, LockMode.IW)
    automaton, grants = restored(
        token=False, parent=4, attach_seq=3, pending=own
    )
    automaton.regenerate_token(1)
    assert automaton.custody_pending
    assert automaton.queued_requests == (own,)
    grant = GrantMessage(
        lock_id="L",
        sender=4,
        mode=LockMode.IW,
        request_id=own.request_id,
        attachment_seq=9,
    )
    # The root stays a root: it erases the granter's entry for it, and
    # its request waits in its own queue for the fence to lift.
    assert automaton.handle(grant) == [release(4, LockMode.NONE, 9)]
    assert automaton.has_token and automaton.parent is None
    assert automaton.pending_mode is LockMode.IW
    assert automaton.held_modes == {} and grants == []


def test_a_stale_grant_from_the_parent_is_answered_with_the_owned_mode():
    # Node 0 re-homed under node 4 (attachment 12) holding R; node 4
    # then granted a stale duplicate of an old request of node 0's and
    # recorded it at attachment 9.  Adopting that grant would roll the
    # attachment back; ignoring it left node 4's entry pinned forever.
    old = request(0, 5, LockMode.W)
    automaton, grants = restored(
        token=False, parent=4, attach_seq=12, held={LockMode.R: 1}
    )
    grant = GrantMessage(
        lock_id="L",
        sender=4,
        mode=LockMode.W,
        request_id=old.request_id,
        attachment_seq=9,
    )
    assert automaton.handle(grant) == [release(4, LockMode.R, 12)]
    assert automaton.parent == 4 and automaton.attachment_seq == 12
    assert automaton.held_modes == {LockMode.R: 1} and grants == []


def test_a_migration_older_than_the_childs_release_here_is_ignored():
    # The shape of `chaos --plan graceful-drain --seed 234`: node 3 moved
    # under node 0 and released to NONE at attachment 129; the leaver's
    # migration of node 3 at IR, attachment 110 from before the move,
    # arrived after.  Adopting it left a phantom IR child that blocked
    # every W at the token for good.
    automaton, _grants = restored()
    gone = ReleaseMessage(
        lock_id="L", sender=3, new_mode=LockMode.NONE, attachment_seq=129
    )
    assert automaton.handle(gone) == []
    assert automaton.adopt_child(3, LockMode.IR, 110) == []
    assert automaton.children == {}
    # A migration of a newer attachment is still adopted.
    automaton.adopt_child(3, LockMode.IR, 130)
    assert automaton.children == {3: LockMode.IR}
