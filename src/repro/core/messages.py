"""Wire-format messages of the hierarchical locking protocol.

The protocol uses five message types, matching the breakdown reported in
the paper's Figure 7:

* ``RequestMessage`` — a lock request travelling up the copyset tree,
* ``GrantMessage`` — a granted copy (Rule 3, case "copy grant"),
* ``TokenMessage`` — a token transfer (Rule 3, case "transfer token"),
* ``ReleaseMessage`` — an owned-mode change propagating to a parent,
* ``FreezeMessage`` — the token's current frozen-mode set propagating down
  the copyset tree (Rule 6).

Messages are immutable dataclasses.  Each message names the lock it is
about so that a single transport channel can multiplex every lock in the
system (see :mod:`repro.core.lockspace`).
"""

from __future__ import annotations

import dataclasses
import itertools
import types
from typing import Dict, FrozenSet, Mapping, Optional, Tuple

from .modes import LockMode

#: Type alias for node identifiers.
NodeId = int

#: Type alias for lock identifiers (hierarchical path strings).
LockId = str

_request_serial = itertools.count()


@dataclasses.dataclass(frozen=True)
class TraceContext:
    """Causal-tracing context riding piggyback on a protocol message.

    Minted by the transport layer when a request first crosses the wire
    and re-stamped (same ``trace_id``, fresh ``hop``, ``parent`` pointing
    at the causally preceding hop) on every subsequent message of the
    same causal chain.  Between the automaton that builds a reply and the
    transport that sends it, the field holds the *triggering* message's
    context — a parent hint the transport resolves into a fresh hop — so
    the automata only ever copy the field and never talk to the tracer.

    ``kind`` annotates non-primary hops: ``"send"`` for ordinary ones,
    ``"retransmit"`` for session-channel or application-level re-sends,
    ``"regen"`` for messages born from an epoch-fenced token
    regeneration.  See docs/TRACING.md for the full hop model.
    """

    trace_id: str
    hop: int
    parent: int
    origin: NodeId
    kind: str = "send"


@dataclasses.dataclass(frozen=True)
class Message:
    """Base class for all protocol messages."""

    lock_id: LockId
    sender: NodeId
    #: Optional causal-tracing context (see :class:`TraceContext`).  Kept
    #: out of equality/repr so tracing never changes protocol semantics:
    #: two messages that differ only in trace context still compare equal
    #: (dedup, queues) and render identically in logs.
    trace: Optional[TraceContext] = dataclasses.field(
        default=None, kw_only=True, compare=False, repr=False
    )


@dataclasses.dataclass(frozen=True)
class RequestId:
    """Globally unique, totally ordered identity of one lock request.

    Ordering is by Lamport ``timestamp`` first (the FIFO order the protocol
    preserves, following the paper's citation [11]), with the origin node
    and an origin-local serial number as deterministic tie-breakers.
    """

    timestamp: int
    origin: NodeId
    serial: int

    def sort_key(self) -> Tuple[int, int, int]:
        """Return the total-order key used for FIFO queue merges."""

        return (self.timestamp, self.origin, self.serial)


@dataclasses.dataclass(frozen=True)
class RequestMessage(Message):
    """A lock request for ``mode`` on behalf of ``origin``.

    ``sender`` is the immediate forwarder (changes hop by hop), ``origin``
    is the node that wants the lock.  ``upgrade`` marks a Rule 7 U→W
    conversion request; such requests never leave their origin node (the
    upgrader always holds the token, see DESIGN.md) but share the queue
    entry representation.
    """

    origin: NodeId
    mode: LockMode
    request_id: RequestId
    upgrade: bool = False
    #: Arbitration priority (higher first) when the hosting automaton runs
    #: with ``ProtocolOptions.priority_scheduling``; ignored otherwise.
    priority: int = 0
    #: Fencing token the issuing session presents (see :mod:`repro.leases`).
    #: ``0`` means unfenced (the fault-free protocol); a positive token at
    #: or below the receiving automaton's fence floor marks the request as
    #: coming from a holder whose lease was revoked — it is dropped.
    fencing_token: int = 0


@dataclasses.dataclass(frozen=True)
class GrantMessage(Message):
    """A granted copy of the lock in ``mode`` for request ``request_id``.

    The receiver becomes a child of ``sender`` in the copyset tree.  The
    granter's current frozen-mode set is piggybacked so the new child never
    grants a frozen mode.

    ``attachment_seq`` identifies this parent/child attachment epoch.  It
    is minted from the global serial counter **at grant-issue time** (not
    the request's creation time), so epochs are ordered exactly as the
    attachment-establishing events really happened.  Release messages echo
    the child's latest processed epoch, letting the parent discard any
    release that was already in flight when the grant was issued — without
    this, a stale ``Release(NONE)`` arriving just after a re-grant (or
    crossing the grant on the wire) silently under-counts the child's
    subtree and breaks the owned-mode dominance invariant.
    """

    mode: LockMode
    request_id: RequestId
    frozen: FrozenSet[LockMode] = frozenset()
    attachment_seq: int = 0


@dataclasses.dataclass(frozen=True)
class TokenMessage(Message):
    """The token moving to the requester of ``granted_mode``.

    Carries the old token node's local FIFO queue (Fig. 4 note c), its
    remaining owned mode (note b: the old owner becomes a child of the new
    token node iff it still owns a mode) and the current frozen set.
    """

    granted_mode: LockMode
    request_id: RequestId
    prev_owner_mode: LockMode
    queue: Tuple[RequestMessage, ...] = ()
    frozen: FrozenSet[LockMode] = frozenset()
    #: Attachment epoch of the old token's new role as the receiver's
    #: child (a freshly minted serial; see GrantMessage.attachment_seq).
    prev_owner_seq: int = 0
    #: Token incarnation number.  0 for the original token; bumped each
    #: time the recovery layer regenerates a token presumed lost with a
    #: crashed node (see docs/FAULTS.md).  Receivers discard tokens whose
    #: epoch is below their observed floor, which is what makes a stale
    #: token resurfacing after a regeneration harmless.
    epoch: int = 0


@dataclasses.dataclass(frozen=True)
class ReleaseMessage(Message):
    """The sender's owned mode on this lock changed to ``new_mode``.

    ``new_mode == LockMode.NONE`` detaches the sender from the receiver's
    copyset entirely (Rule 5.2).  ``attachment_seq`` echoes the epoch of
    the attachment this release refers to; the receiver ignores releases
    older than its current record for the sender (see GrantMessage).
    """

    new_mode: LockMode
    attachment_seq: int = 0


def fresh_attachment_seq() -> int:
    """Mint a fresh attachment epoch (shares the request serial space)."""

    return next(_request_serial)


def advance_serial_past(floor: int) -> None:
    """Ensure future serials/attachment epochs exceed *floor*.

    Durable recovery restores attachment epochs persisted by an earlier
    process incarnation; after a real process restart the counter would
    start back at zero and mint epochs *below* the restored ones, which
    would make fresh attachments look stale.  Burning serials up to the
    restored high-water mark keeps the space monotonic.
    """

    if floor < 0:
        return
    while next(_request_serial) <= floor:
        pass
    # The loop consumed one serial beyond the floor; that gap is harmless
    # (serials only need to be unique and monotonic, not dense).


@dataclasses.dataclass(frozen=True)
class FreezeMessage(Message):
    """The absolute frozen-mode set currently in force (Rule 6).

    Sent down the copyset tree to (transitive) potential granters whenever
    the effective frozen set changes; a shrinking set doubles as the
    unfreeze notification (see DESIGN.md §3).
    """

    frozen: FrozenSet[LockMode]


@dataclasses.dataclass(frozen=True)
class Envelope:
    """A routed message: deliver ``message`` to node ``dest``."""

    dest: NodeId
    message: Message


def fresh_request_id(timestamp: int, origin: NodeId) -> RequestId:
    """Mint a new :class:`RequestId` with a process-unique serial."""

    return RequestId(timestamp=timestamp, origin=origin, serial=next(_request_serial))


#: The traffic planes: what a message is *for*.  Every labelled type
#: belongs to exactly one (verdicts, ``/metrics`` and the ledger count
#: messages by it).
PLANES = ("protocol", "channel-ack", "heartbeat", "recovery", "membership")

_labels: Dict[type, str] = {}
_label_planes: Dict[str, str] = {}

#: Message-type labels used by the metrics collector (Figure 7 legend).
#: Read-only: a type gets its label from :func:`declare_messages`, which
#: makes it state its plane and its delivery class in the same row.
MESSAGE_TYPE_LABELS: Mapping[type, str] = types.MappingProxyType(_labels)

#: Label → plane (a label names one plane, whichever protocol uses it).
LABEL_PLANES: Mapping[str, str] = types.MappingProxyType(_label_planes)


def declare_messages(
    labels: Mapping[type, str], *, plane: str, ordered: bool
) -> None:
    """Give each type of *labels* its label, its plane and its delivery
    class — the one declaration a wire message type makes about itself.

    *ordered* is what the type asks of the fabric: ``True`` for the
    per-pair FIFO stream (:mod:`repro.sim.network` never delivers it
    before an earlier ordered message of the same pair), ``False`` for a
    datagram, which arrives on its own latency draw and may overtake or
    be overtaken.  Only a type whose handler is indifferent to order,
    duplication and staleness may say ``False``.  Both land on the class
    (``cls.ordered``, ``cls.plane``) so the fabric reads them with one
    attribute load.  Leaving either out, or naming an unknown plane, is
    a ``TypeError`` at import.
    """

    if plane not in PLANES or not isinstance(ordered, bool):
        raise TypeError(
            f"plane must be one of {PLANES} and ordered a bool, "
            f"got {plane!r}, {ordered!r}"
        )
    for cls, label in labels.items():
        if _label_planes.setdefault(label, plane) != plane:
            raise TypeError(
                f"{cls.__name__}: label {label!r} already names plane "
                f"{_label_planes[label]!r}"
            )
        cls.plane, cls.ordered = plane, ordered
        _labels[cls] = label


declare_messages(
    {
        RequestMessage: "request",
        GrantMessage: "grant",
        TokenMessage: "token",
        ReleaseMessage: "release",
        FreezeMessage: "freeze",
    },
    plane="protocol",
    ordered=True,
)


def fault_label(message: object) -> str:
    """Protocol-level label of *message*, looking through session frames.

    Falls back to the lower-cased class name (minus a ``Message`` suffix)
    for types outside the core Figure-7 label table, so rules can target
    recovery traffic (``"heartbeat"``, ``"session-ack"``, ...) too.
    """

    payload = getattr(message, "payload", None)
    if payload is not None:
        return fault_label(payload)
    label = MESSAGE_TYPE_LABELS.get(type(message))
    if label is not None:
        return label
    name = type(message).__name__
    if name.endswith("Message"):
        name = name[: -len("Message")]
    return name.lower()


def message_type_label(message: Message) -> str:
    """Return the Figure-7 label for *message* (e.g. ``"grant"``)."""

    return MESSAGE_TYPE_LABELS[type(message)]
