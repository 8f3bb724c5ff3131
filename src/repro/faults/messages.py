"""Wire messages of the recovery layer.

These ride the same transports as the protocol messages but are consumed
by the :class:`~repro.faults.recovery.RecoveryManager` (its channel, its
detector and its regeneration layer), never by the lock automata.  Two
groups:

* **Session framing** — :class:`SessionMessage` / :class:`SessionAck`
  implement per-ordered-pair reliable FIFO streams over a lossy fabric
  (sequence numbers, cumulative acks; see :mod:`repro.faults.channel`).
  ``boot`` is the sender's incarnation number so a restarted node's
  fresh stream is not mistaken for a replay of its previous life.
* **Failure coordination** — heartbeats, orphan reports, token probes /
  acks and reparent notices.  These are deliberately *not* sessioned:
  they are idempotent, periodically re-sent by their originators, and
  must keep flowing while streams to a dead peer are torn down.

The table at the bottom also states each type's *delivery class* (see
:func:`repro.core.messages.declare_messages`).  Two types are datagrams,
and they are the whole fault-free control plane: :class:`SessionAck`
(cumulative; a stale one trims nothing) and :class:`HeartbeatMessage`
(numbered per incarnation; a receiver applies a beat's content only if
it is newer than the newest it applied).  Neither may delay, nor wait
behind, a protocol frame on the fabric.

Messages subclass the core :class:`~repro.core.messages.Message` so every
transport and observer handles them uniformly; node-scoped ones (e.g.
heartbeats) carry the empty lock id.
"""

from __future__ import annotations

import dataclasses
from typing import Tuple

from ..core.messages import Message, NodeId, declare_messages


@dataclasses.dataclass(frozen=True)
class SessionMessage(Message):
    """Frame ``seq`` of the sender's stream to the receiver.

    ``payload`` is the protocol message being carried; ``lock_id`` echoes
    the payload's for observability.  Streams are per ordered node pair;
    ``boot`` identifies the sender incarnation that opened the stream.
    """

    seq: int
    payload: Message
    boot: int = 0


@dataclasses.dataclass(frozen=True)
class SessionAck(Message):
    """Cumulative ack: every frame up to ``ack`` arrived in order.

    ``boot`` echoes the *sender incarnation of the acked stream* so a
    stale ack cannot trim frames of a newer stream.
    """

    ack: int
    boot: int = 0


@dataclasses.dataclass(frozen=True)
class HeartbeatMessage(Message):
    """Liveness beacon, sent every heartbeat interval to every peer.

    ``boot`` lets peers notice a silent crash + restart (the incarnation
    jumps) even when no heartbeat was ever missed.  ``leases`` piggybacks
    the sender's active lease table — each entry is a 4-tuple
    ``(lock, mode, holder, fencing_token)`` (see :mod:`repro.leases`); a
    heartbeat therefore *is* the lease renewal, so a holder that keeps
    beating keeps its holds.  ``view_epoch`` is the sender's installed
    membership view (see :mod:`repro.membership`); a peer seeing a lower
    epoch than its own re-sends the current ``ViewInstall``, which is the
    view anti-entropy path.

    ``seq`` numbers the sender's beats within its incarnation.  A beat
    is a datagram (the fabric may deliver it late, twice or after its
    successor), and its lease set and view epoch describe the sender *at
    send time*: a receiver applies them only from a beat whose
    ``(boot, seq)`` is newer than the newest it applied.  Any beat, new
    or not, is evidence of life.
    """

    boot: int = 0
    leases: Tuple = ()
    view_epoch: int = 0
    seq: int = 0


@dataclasses.dataclass(frozen=True)
class OrphanReport(Message):
    """An orphan (its parent is suspected dead) asking for a new parent.

    Sent — and periodically re-sent until a ``ReparentMessage`` arrives —
    to the current regeneration coordinator.  ``lock_id`` names the
    orphaned lock, ``suspect`` the dead parent, ``epoch`` the highest
    token epoch the orphan has observed for the lock.
    """

    suspect: NodeId
    epoch: int = 0


@dataclasses.dataclass(frozen=True)
class TokenProbe(Message):
    """The coordinator asking: does anyone hold ``lock_id``'s token?"""


@dataclasses.dataclass(frozen=True)
class TokenAck(Message):
    """A live token holder answering a probe with its current epoch."""

    epoch: int = 0


@dataclasses.dataclass(frozen=True)
class ReparentMessage(Message):
    """Directive/announcement: ``lock_id``'s token lives at ``parent``.

    Sent by the coordinator to orphans (who re-attach under ``parent``)
    and broadcast to all live peers after a regeneration so everyone
    raises its epoch floor — the mechanism that discards stale-epoch
    tokens still in flight from before the crash.
    """

    parent: NodeId
    epoch: int = 0


# Labels, planes and delivery classes (extends the Figure-7 table; these
# types only ever appear when the recovery layer is in use).  A frame is
# its payload's plane.  Frames stay on the ordered stream although the
# channel re-sequences them: unordered, a retransmission becomes a hedge
# racing the original, and whether those frames should exist at all is
# the retransmit timer's question (ROADMAP 2(c)), not the fabric's.
declare_messages({SessionMessage: "session"}, plane="protocol", ordered=True)
declare_messages(
    {SessionAck: "session-ack"}, plane="channel-ack", ordered=False
)
declare_messages(
    {HeartbeatMessage: "heartbeat"}, plane="heartbeat", ordered=False
)
# Rare and fault-time only; whether they tolerate reordering is for the
# stack explorer to license, so they stay on the stream.
declare_messages(
    {
        OrphanReport: "orphan-report",
        TokenProbe: "token-probe",
        TokenAck: "token-ack",
        ReparentMessage: "reparent",
    },
    plane="recovery",
    ordered=True,
)
