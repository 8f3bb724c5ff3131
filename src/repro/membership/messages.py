"""Wire messages of the membership (view-change) protocol.

All of these are node-scoped control messages: like heartbeats and
token probes they carry ``lock_id=""`` (except the per-lock custody
handoff and child migration, which name the lock they splice).  They
ride the same envelopes and transports as protocol messages and are
consumed by :class:`repro.faults.recovery.RecoveryManager`, never by a
lock automaton.

The view-change handshake mirrors the token-regeneration two-phase
pattern: ``ViewProposal`` → quorum of ``ViewAck`` over the *current*
view → ``ViewInstall`` broadcast to the union of the old and new member
sets.  Installs are idempotent (epoch-guarded), so the proposer and the
heartbeat anti-entropy path may re-send them freely.
"""

from __future__ import annotations

import dataclasses
from typing import Tuple

from ..core.messages import LockId, Message, NodeId, declare_messages
from ..core.modes import LockMode


@dataclasses.dataclass(frozen=True)
class JoinRequest(Message):
    """A booted newcomer asks *sponsor* (the receiver) to admit it.

    ``sender`` is the joiner.  Idempotent: a sponsor already running (or
    done with) a proposal admitting the sender ignores duplicates.
    """


@dataclasses.dataclass(frozen=True)
class StateTransfer(Message):
    """Bootstrap snapshot for a joiner: current view + routing state.

    ``hints`` carries the sponsor's token-location beliefs as
    ``(lock, holder, epoch)`` rows; ``floors`` the per-lock fence floors
    so the joiner rejects stale fenced traffic from day one.  Re-sent
    whenever the joiner's heartbeat shows a stale view epoch, so a lost
    transfer heals itself.
    """

    view_epoch: int
    members: Tuple[NodeId, ...]
    hints: Tuple[Tuple[LockId, NodeId, int], ...] = ()
    floors: Tuple[Tuple[LockId, int], ...] = ()


@dataclasses.dataclass(frozen=True)
class ViewProposal(Message):
    """Phase 1: propose installing view *epoch* with *members*.

    ``joined``/``removed`` are the delta against the proposer's current
    view, whose epoch is ``base``; ``forced`` marks a decommission (the
    removed node is dead and its leases/copyset entries must be fenced
    out rather than drained).
    """

    epoch: int
    members: Tuple[NodeId, ...]
    joined: Tuple[NodeId, ...] = ()
    removed: Tuple[NodeId, ...] = ()
    forced: bool = False
    base: int = 0


@dataclasses.dataclass(frozen=True)
class ViewAck(Message):
    """Phase 1 answer: the sender promises view *epoch* to the proposer."""

    epoch: int


@dataclasses.dataclass(frozen=True)
class ViewInstall(Message):
    """Phase 2: install the quorum-acked view.  Epoch-guarded, idempotent."""

    epoch: int
    members: Tuple[NodeId, ...]
    joined: Tuple[NodeId, ...] = ()
    removed: Tuple[NodeId, ...] = ()
    forced: bool = False


@dataclasses.dataclass(frozen=True)
class HandoffMessage(Message):
    """A departing token holder offers custody of *lock_id* to the receiver.

    ``epoch`` is the leaver's current token epoch; the receiver takes
    custody by regenerating at a strictly higher epoch under a custody
    fence, then broadcasts the new location — which is what demotes the
    leaver (``observe_epoch``).  Re-sent every leave tick until the
    leaver sees itself demoted, and idempotent at the receiver.
    """

    epoch: int


@dataclasses.dataclass(frozen=True)
class ChildMigrate(Message):
    """A departing parent asks the receiver to adopt one of its children.

    Sent *before* the child is told to reattach, so the child's subtree
    mode (``mode`` under attachment epoch ``seq``) is recorded at the new
    parent while the leaver still accounts for it — over-approximation is
    Rule-1-safe in every message ordering, under-approximation is not.
    """

    child: NodeId
    mode: LockMode
    seq: int = 0


# Rare and fault- or churn-time only; whether they tolerate reordering
# is for the stack explorer to license, so they stay on the stream.
declare_messages(
    {
        JoinRequest: "join-request",
        StateTransfer: "state-transfer",
        ViewProposal: "view-proposal",
        ViewAck: "view-ack",
        ViewInstall: "view-install",
        HandoffMessage: "handoff",
        ChildMigrate: "child-migrate",
    },
    plane="membership",
    ordered=True,
)

#: The message types of this module (``HandoffMessage`` is consumed by
#: the token layer, the rest by the membership layer).
MEMBERSHIP_TYPES = (
    JoinRequest,
    StateTransfer,
    ViewProposal,
    ViewAck,
    ViewInstall,
    HandoffMessage,
    ChildMigrate,
)
