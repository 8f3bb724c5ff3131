"""Unit tests for :mod:`repro.membership`: views and wire messages."""

from __future__ import annotations

import pytest

from repro.core.messages import MESSAGE_TYPE_LABELS
from repro.core.modes import LockMode
from repro.membership import (
    MEMBERSHIP_TYPES,
    ChildMigrate,
    HandoffMessage,
    JoinRequest,
    MembershipView,
    StateTransfer,
    ViewAck,
    ViewInstall,
    ViewProposal,
)


class TestMembershipView:
    def test_initial_view_is_epoch_zero_and_sorted(self):
        view = MembershipView(0, (3, 1, 2, 1))
        assert view.epoch == 0
        assert view.members == (1, 2, 3)

    def test_members_normalized_even_when_passed_unsorted(self):
        view = MembershipView(epoch=4, members=(5, 1, 3, 3))
        assert view.members == (1, 3, 5)

    @pytest.mark.parametrize(
        "size,expected", [(1, 1), (2, 2), (3, 2), (4, 3), (5, 3), (6, 4)]
    )
    def test_quorum_is_a_strict_majority(self, size, expected):
        view = MembershipView(0, tuple(range(size)))
        assert view.quorum() == expected

    def test_payload_round_trip(self):
        view = MembershipView(epoch=9, members=(0, 2, 4))
        assert MembershipView.from_payload(view.to_payload()) == view

    def test_payload_defaults(self):
        view = MembershipView.from_payload({})
        assert view.epoch == 0
        assert view.members == ()


class TestMembershipMessages:
    def test_every_membership_type_has_a_trace_label(self):
        for message_type in MEMBERSHIP_TYPES:
            assert message_type in MESSAGE_TYPE_LABELS

    def test_view_change_messages_carry_the_delta(self):
        proposal = ViewProposal(
            lock_id="",
            sender=0,
            epoch=2,
            members=(0, 1, 2, 5),
            joined=(5,),
        )
        assert proposal.joined == (5,) and proposal.removed == ()
        assert not proposal.forced
        install = ViewInstall(
            lock_id="",
            sender=0,
            epoch=3,
            members=(0, 1, 2),
            removed=(5,),
            forced=True,
        )
        assert install.forced and install.removed == (5,)
        ack = ViewAck(lock_id="", sender=1, epoch=2)
        assert ack.epoch == 2

    def test_join_and_transfer_messages(self):
        join = JoinRequest(lock_id="", sender=5)
        assert join.sender == 5
        transfer = StateTransfer(
            lock_id="",
            sender=0,
            view_epoch=2,
            members=(0, 1, 5),
            hints=(("db", 1, 3),),
            floors=(("db", 17),),
        )
        assert transfer.hints[0] == ("db", 1, 3)
        assert transfer.floors[0] == ("db", 17)

    def test_splice_messages_name_their_lock(self):
        handoff = HandoffMessage(lock_id="db", sender=1, epoch=4)
        assert handoff.lock_id == "db" and handoff.epoch == 4
        migrate = ChildMigrate(
            lock_id="db", sender=1, child=3, mode=LockMode.IW, seq=12
        )
        assert migrate.child == 3 and migrate.seq == 12
