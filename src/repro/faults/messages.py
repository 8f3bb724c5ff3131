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

Messages subclass the core :class:`~repro.core.messages.Message` so every
transport and observer handles them uniformly; node-scoped ones (e.g.
heartbeats) carry the empty lock id.
"""

from __future__ import annotations

import dataclasses
from typing import Tuple

from ..core.messages import MESSAGE_TYPE_LABELS, Message, NodeId


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
    """

    boot: int = 0
    leases: Tuple = ()
    view_epoch: int = 0


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


#: Labels for metrics/observability (extends the Figure-7 table; these
#: types only ever appear when the recovery layer is in use).
MESSAGE_TYPE_LABELS.update(
    {
        SessionMessage: "session",
        SessionAck: "session-ack",
        HeartbeatMessage: "heartbeat",
        OrphanReport: "orphan-report",
        TokenProbe: "token-probe",
        TokenAck: "token-ack",
        ReparentMessage: "reparent",
    }
)
