"""Wire messages of the recovery layer.

These ride the same transports as the protocol messages but are consumed
by the :class:`~repro.faults.recovery.RecoveryManager` (its channel, its
detector and its token layer), never by the lock automata.  Two
groups:

* **Session framing** — :class:`SessionMessage` / :class:`SessionAck`
  implement per-ordered-pair reliable FIFO streams over a lossy fabric
  (sequence numbers, cumulative acks; see :mod:`repro.faults.channel`).
  ``boot`` is the sender's incarnation number so a restarted node's
  fresh stream is not mistaken for a replay of its previous life.  On a
  healthy stream the acks ride heartbeats; a :class:`SessionAck` of its
  own answers only a gap or a duplicate.
* **Failure coordination** — heartbeats, orphan reports, probes, acks
  and reparent notices, deliberately *not* sessioned (a custody answer
  aside): they are idempotent, re-sent by their originators, and must
  keep flowing while streams to a dead peer are torn down.

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
    ``boot`` identifies the sender incarnation that opened the stream, and
    ``stream`` how many times that incarnation abandoned its stream to
    this receiver before (each restart numbers frames from 0 again).
    """

    seq: int
    payload: Message
    boot: int = 0
    stream: int = 0


@dataclasses.dataclass(frozen=True)
class SessionAck(Message):
    """Cumulative ack: every frame up to ``ack`` arrived in order.

    ``boot`` and ``stream`` echo the acked stream's (the sender
    incarnation that opened it, and which of its streams it is) so a
    stale ack cannot trim frames of a newer stream.  Sent on its own only
    for a gap or a duplicate, so it also asks the sender to resend the
    oldest frame it leaves unacked; other acks ride heartbeats
    (:class:`HeartbeatMessage` ``ack`` / ``ack_boot``).
    """

    ack: int
    boot: int = 0
    stream: int = 0


@dataclasses.dataclass(frozen=True)
class HeartbeatMessage(Message):
    """Liveness beacon, sent each heartbeat interval to the peers the
    sender depends on or that depend on it, and to a rotating slice of
    the rest, so that every peer hears from it within a few intervals.

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

    ``ack`` / ``ack_boot`` / ``ack_stream`` carry the cumulative ack the
    sender's session channel owes the *receiver* (what a
    :class:`SessionAck` with those fields would say), so they differ per
    destination; ``ack = -1`` acks nothing.  Being cumulative and
    boot-checked, an ack is applied from any beat of the sender's current
    incarnation, newest or not.

    ``want`` says that the sender depends on the receiver (it is the
    parent or a copyset child of a lock the sender holds, awaits or
    queues a request on, or it owes the sender an ack), which asks the
    receiver to beat the sender every interval.  ``gap`` is the
    sender's promise: its next beat to this receiver leaves within
    ``gap`` heartbeat intervals, so the receiver tolerates that much
    more silence before suspecting it; a beat to a peer that wants it
    promises one interval, and its ``echo`` (the newest ``(boot, seq)``
    applied from that peer) must not predate that peer's dependency on
    the sender for the promise to count.  All three differ per
    destination and apply, like the lease rows, only from the newest beat.
    """

    boot: int = 0
    leases: Tuple = ()
    view_epoch: int = 0
    seq: int = 0
    ack: int = -1
    ack_boot: int = 0
    ack_stream: int = 0
    want: bool = False
    gap: int = 1
    echo: Tuple = ()

    def __getstate__(self) -> dict:
        # Most beats ack nothing, want nothing or promise the next
        # interval; those fields pickle only off their defaults (the
        # class defaults stand in for them on the far side).  The rest is
        # the header, ``boot``, ``leases``, ``view_epoch`` and ``seq``;
        # no message carries anything for the tracer (its hop id rides
        # beside the message, see repro.obs.tracing).
        return {
            key: value
            for key, value in self.__dict__.items()
            if _BEAT_DEFAULTS.get(key, _UNSET) != value
        }


#: The :class:`HeartbeatMessage` fields a beat leaves off the wire at
#: these values.
_BEAT_DEFAULTS = dict(
    ack=-1, ack_boot=0, ack_stream=0, want=False, gap=1, echo=()
)
_UNSET = object()


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
    """The coordinator asking: does anyone hold ``lock_id``'s token?
    ``round`` numbers the coordinator's rounds of asking."""

    round: int = 0


@dataclasses.dataclass(frozen=True)
class TokenAck(Message):
    """A member answering a probe: whether it ``holds`` the token, and
    its token epoch (the floor, if it does not); ``round`` echoes the
    probe's."""

    epoch: int = 0
    holds: bool = False
    round: int = 0


@dataclasses.dataclass(frozen=True)
class CustodyProbe(TokenProbe):
    """A custodian, holding the token fenced at ``epoch``, asking every
    member to answer (:mod:`repro.faults.tokens`)."""

    epoch: int = 0


@dataclasses.dataclass(frozen=True)
class CustodyAnswer(Message):
    """A member's best known placement, sent on the session stream behind
    its re-assertion; ``serving``: its own token, not fenced."""

    parent: NodeId
    epoch: int = 0
    serving: bool = False


@dataclasses.dataclass(frozen=True)
class ReparentMessage(Message):
    """Directive/announcement: ``lock_id``'s token lives at ``parent``.

    Sent by the coordinator to orphans (who re-attach under ``parent``)
    and broadcast to all live peers after a regeneration so everyone
    raises its epoch floor — the mechanism that discards stale-epoch
    tokens still in flight from before the crash.  With ``migrate`` it is
    a departing parent's directive to its child to attach under
    ``parent`` instead (see :mod:`repro.membership`).
    """

    parent: NodeId
    epoch: int = 0
    migrate: bool = False


# Labels, planes and delivery classes (extends the Figure-7 table; these
# types only ever appear when the recovery layer is in use).  A frame is
# its payload's plane.  Frames stay on the ordered stream although the
# channel re-sequences them: unordered, a retransmission becomes a hedge
# racing the original, and a gap would no longer mean a loss.  On the
# stream it does (bar a fault plan's reorder), which is what makes a gap
# worth the channel's immediate resend.
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
        CustodyProbe: "custody-probe",
        CustodyAnswer: "custody-answer",
    },
    plane="recovery",
    ordered=True,
)
