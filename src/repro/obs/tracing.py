"""Causal request tracing: hop records, chains, critical-path attribution.

The tracer reconstructs, per lock request, the *causal chain* of wire
messages it triggered — request → forward hops → grant-by-copyset or
token transfer → release — across all three protocols and every
transport.  It stands beside the protocol, not in it: no message
carries a trace field and no automaton knows the tracer exists.

* **Fabrics** call :meth:`MessageTracer.outbound` when a message crosses
  the wire and carry the hop id it returns *beside* the message (the
  simulator's scheduled delivery, the threaded inbox item, the TCP frame
  tuple), then hand both to :meth:`MessageTracer.deliver`, which records
  the arrival and opens a *delivery scope* around the handler.
* **The tracer** attributes each outbound message from what it saw
  delivered: the last delivered hop of the request a message names, a
  mirror of each Raymond node's request queue, the open delivery scope,
  or the grant that node last received.

It draws no randomness, changes no message and sends nothing, so a
traced run is bit-identical to an untraced one in every
protocol-visible way.

Hop kinds: ``"send"`` for ordinary hops, ``"retransmit"`` for
session-channel / application-level re-sends (a channel re-send of the
same frame object is an extra annotated hop sharing the original's
parent), ``"regen"`` for messages born from an epoch-fenced token
regeneration, ``"replay"`` for messages re-issued from a durable journal
during a restarted node's rejoin (see :mod:`repro.persist`).
``"heartbeat"`` and ``"session-ack"`` traffic is liveness machinery, not
request causality, and is never traced.

:func:`critical_path` walks a granted chain backwards from the grant hop
and tiles the interval ``[issued_at, granted_at]`` into transit,
queue-wait, freeze-wait and recovery-stall segments that sum *exactly*
to the span-measured grant latency.  See docs/TRACING.md.
"""

from __future__ import annotations

import contextlib
import dataclasses
import threading
import weakref
from collections import defaultdict, deque
from typing import Callable, Deque, Dict, Iterator, List, Optional, Tuple

from ..core.contract import FLOAT, INT, RAW, STR, field, listing, record
from ..core.messages import Envelope, LockId, NodeId, fault_label
from .sink import GRANTED, ISSUED

#: ``() -> float`` time source (shared with the owning RunObserver).
Clock = Callable[[], float]

#: Message labels that never become causal hops.
UNTRACED_LABELS = frozenset({"heartbeat", "session-ack"})

#: Labels whose aux chains count as recovery activity.
_RECOVERY_LABELS = frozenset(
    {"orphan-report", "token-probe", "token-ack", "reparent"}
)

#: A hop's identity, ``(trace id, hop number)``: what a fabric carries
#: beside the message it belongs to.
HopId = Tuple[str, int]

#: A node's own request in the mirror of a Raymond request queue.
_SELF = "self"

#: Critical-path segment names, in render order.
PATH_SEGMENTS = ("transit", "queue", "freeze", "recovery")


def canonical_span_key(key: object) -> str:
    """Canonical string form of an obs span key, matching trace ids.

    The hierarchical protocol keys spans by ``(origin, serial)`` of the
    RequestId (canonical ``"origin.serial"``, which *is* the trace id);
    the token baselines key by ``(lock_id, origin)`` (canonical
    ``"lock:origin"``, the trace-id prefix before ``#``).
    """

    if isinstance(key, tuple) and len(key) == 2:
        first, second = key
        if isinstance(first, int):
            return f"{first}.{second}"
        return f"{first}:{second}"
    serial = getattr(key, "serial", None)
    origin = getattr(key, "origin", None)
    if serial is not None and origin is not None:
        return f"{origin}.{serial}"
    return str(key)


@record(
    field("hop", INT),
    field("parent", INT),
    field("from", RAW, "sender"),
    field("to", RAW, "dest"),
    field("label", STR),
    field("kind", STR, omit="send"),
    field("sent", RAW, "sent_at", omit=None),
    field("recv", RAW, "recv_at", omit=None),
    field("dup", INT, "duplicates", omit=0),
)
@dataclasses.dataclass
class Hop:
    """One wire message attributed to a causal chain."""

    hop: int  #: 1-based id within the chain.
    parent: int  #: id of the causally preceding hop; 0 = the issue event.
    sender: NodeId
    dest: NodeId
    label: str
    kind: str = "send"
    sent_at: Optional[float] = None
    recv_at: Optional[float] = None
    #: Extra deliveries of the same hop (fault duplicates).
    duplicates: int = 0


@record(
    field("id", STR, "trace_id"),
    field("origin", RAW),
    field("lock", STR),
    field("issued", FLOAT, "issued_at"),
    field("kind", STR, default="request"),
    field("hops", listing(Hop.CODEC), default=()),
    field("granted_hop", RAW, omit=None),
    field("granted", RAW, "granted_at", omit=None),
)
@dataclasses.dataclass
class TraceChain:
    """The reconstructed causal chain of one request (or aux activity)."""

    trace_id: str
    origin: NodeId
    lock: LockId
    issued_at: float
    #: ``"request"`` for chains rooted at a lock request; ``"aux"`` for
    #: grant-ancestry activity (releases, freezes) that outlived its
    #: request chain; ``"recovery"`` for failure-detector traffic.
    kind: str = "request"
    hops: List[Hop] = dataclasses.field(default_factory=list)
    granted_hop: Optional[int] = None
    granted_at: Optional[float] = None

    @property
    def span_key(self) -> str:
        """Canonical span key this chain joins with (trace id sans ``#n``)."""

        return self.trace_id.rsplit("#", 1)[0]

    @property
    def hop_count(self) -> int:
        """Wire messages attributed to this chain (includes retransmits)."""

        return len(self.hops)

    def hop_index(self) -> Dict[int, Hop]:
        return {hop.hop: hop for hop in self.hops}


def critical_path(
    chain: TraceChain, frozen_at: Optional[float] = None
) -> Optional[Dict[str, object]]:
    """Decompose a granted chain's latency into path segments.

    Walks parent links from the grant hop back to the issue event and
    tiles ``[issued_at, granted_at]`` with alternating wait and transit
    intervals — no clamping, no gaps, so the segments sum exactly to the
    grant latency.  Waits overlapping a retransmit/regen hop's send are
    recovery stalls; the final wait after *frozen_at* (the span's Rule-6
    freeze timestamp, when known) is freeze wait; everything else on the
    granting side is queue wait.  Returns ``None`` for ungranted chains.
    """

    if chain.granted_hop is None or chain.granted_at is None:
        return None
    index = chain.hop_index()
    path: List[Hop] = []
    cursor = index.get(chain.granted_hop)
    while cursor is not None:
        path.append(cursor)
        cursor = index.get(cursor.parent)
    path.reverse()

    recovery_sends = [
        hop.sent_at
        for hop in chain.hops
        if hop.kind in ("retransmit", "regen", "replay")
        and hop.sent_at is not None
    ]
    segments = {name: 0.0 for name in PATH_SEGMENTS}
    prev = chain.issued_at
    for position, hop in enumerate(path):
        sent = hop.sent_at if hop.sent_at is not None else prev
        wait = sent - prev
        if wait:
            stalled = any(prev < t <= sent for t in recovery_sends)
            if stalled:
                segments["recovery"] += wait
            elif (
                position == len(path) - 1
                and frozen_at is not None
                and frozen_at < sent
            ):
                freeze = sent - max(prev, frozen_at)
                segments["freeze"] += freeze
                segments["queue"] += wait - freeze
            else:
                segments["queue"] += wait
        recv = hop.recv_at if hop.recv_at is not None else sent
        segments["transit"] += recv - sent
        prev = recv

    return {
        "segments": segments,
        "total": chain.granted_at - chain.issued_at,
        "path_hops": len(path),
        "path": [hop.hop for hop in path],
    }


class MessageTracer:
    """Collects causal hop records for every traced message of a run.

    One instance serves a whole cluster; a mutex makes it safe for the
    threaded transports (the simulator path never contends).  Fabrics
    call the send and receive sides; the owning observer feeds
    :meth:`phase`; recovery marks its re-sends with :meth:`annotated`.
    """

    def __init__(self, clock: Optional[Clock] = None) -> None:
        self._clock: Clock = clock if clock is not None else (lambda: 0.0)
        self._mutex = threading.Lock()
        self._chains: Dict[str, TraceChain] = {}
        self._hops: Dict[HopId, Hop] = {}
        self._next_hop: Dict[str, int] = {}
        #: (lock, requester) → trace id of that node's request under
        #: Naimi's algorithm, until its grant (the pair is reused).
        self._naimi: Dict[Tuple[LockId, NodeId], str] = {}
        #: Last delivered ``request`` hop per trace: the parent of the
        #: forwards, grants and tokens that name the request.
        self._last_request: Dict[str, int] = {}
        #: (node, lock) → (trace id, grant hop) of the latest grant
        #: delivered there; attributes releases/freezes.
        self._last_granted: Dict[Tuple[NodeId, LockId], HopId] = {}
        #: ``id`` of each live session frame a fabric was handed → (a
        #: weak reference that forgets it, its hop): a second send of the
        #: same object is the channel retransmitting it.
        self._frames: Dict[int, Tuple[weakref.ref, HopId]] = {}
        #: (node, lock) → the request queue that node keeps under
        #: Raymond's algorithm, mirrored: the hop of each request
        #: delivered there, :data:`_SELF` for the node's own.
        self._queues: Dict[Tuple[NodeId, LockId], Deque] = defaultdict(
            deque
        )
        #: Open delivery scopes / recovery-kind annotations, keyed by
        #: (node, thread ident) so concurrent dispatchers never collide.
        self._scopes: Dict[Tuple[NodeId, int], HopId] = {}
        self._kinds: Dict[Tuple[NodeId, int], str] = {}
        self._aux: Dict[Tuple, str] = {}
        self._root_serials: Dict[str, int] = {}

    def bind_clock(self, clock: Clock) -> None:
        """Adopt the owning observer's run clock."""

        self._clock = clock

    # -- chain access -----------------------------------------------------

    def chains(self) -> List[TraceChain]:
        """Every chain recorded so far, in mint order."""

        with self._mutex:
            return list(self._chains.values())

    def total_hops(self) -> int:
        """Total wire messages attributed to any chain."""

        with self._mutex:
            return sum(len(c.hops) for c in self._chains.values())

    # -- send side --------------------------------------------------------

    def outbound(self, sender: NodeId, envelope: Envelope) -> Optional[HopId]:
        """Record *envelope* crossing the wire from *sender*; return the
        id of its hop, for the fabric to carry beside the message to
        :meth:`deliver` (``None``: the message is not traced).

        Called by every transport at the instant a message is accepted
        onto the wire (after fault-injector drops, where the fabric
        counts the send, so a dropped send is no hop — unless it is a
        session frame, see :meth:`handed`).
        """

        message = envelope.message
        inner = getattr(message, "payload", None) or message
        label = fault_label(inner)
        if label in UNTRACED_LABELS:
            return None
        now = self._clock()
        with self._mutex:
            known = None if inner is message else self._frames.get(id(message))
            if known is None:
                return self._new_hop(
                    sender, envelope.dest, message, inner, label, now, now
                )
            ident = known[1]
            hop = self._hops[ident]
            if hop.sent_at is None:
                # Handed earlier, dropped then: its first wire crossing.
                hop.sent_at = now
            else:
                # The channel re-sent this very frame: an annotated
                # retransmit hop, sibling of the original (same parent,
                # no arrival of its own — its deliveries are the
                # original hop's).
                self._append_hop(
                    ident[0],
                    parent=hop.parent,
                    sender=sender,
                    dest=envelope.dest,
                    label=label,
                    kind="retransmit",
                    sent_at=now,
                )
            return ident

    def handed(self, sender: NodeId, envelopes: List[Envelope]) -> None:
        """Open the hop of each session frame in *envelopes* not seen
        before; a fabric that may drop what it is handed calls this
        before it decides.

        A frame whose first send is dropped crosses the wire first on a
        retransmit, outside the handler that sent it; opened here, in
        that handler's scope, it keeps its chain and :meth:`outbound`
        records its first crossing.
        """

        for dest, message in envelopes:
            inner = getattr(message, "payload", None)
            if inner is None:
                continue
            label = fault_label(inner)
            if label in UNTRACED_LABELS:
                continue
            now = self._clock()
            with self._mutex:
                if id(message) not in self._frames:
                    self._new_hop(
                        sender, dest, message, inner, label, now, None
                    )

    # -- receive side -----------------------------------------------------

    def delivered(
        self, node: NodeId, message: object, ident: Optional[HopId]
    ) -> None:
        """Record the arrival at *node* of *message*, whose hop is *ident*."""

        if ident is None:
            return
        inner = getattr(message, "payload", None) or message
        now = self._clock()
        trace_id, number = ident
        with self._mutex:
            hop = self._hops[ident]
            if hop.recv_at is None:
                hop.recv_at = now
            else:
                hop.duplicates += 1
            if hop.label == "request":
                self._last_request[trace_id] = number
                if type(inner).__name__ == "RaymondRequestMessage":
                    self._queues[(node, inner.lock_id)].append(ident)
            chain = self._chains[trace_id]
            if (
                chain.granted_hop is None
                and chain.kind == "request"
                and node == chain.origin
                and hop.label in ("grant", "token")
            ):
                chain.granted_hop = number
                chain.granted_at = hop.recv_at
                self._last_granted[(node, chain.lock)] = ident
                if self._naimi.get((chain.lock, node)) == trace_id:
                    del self._naimi[(chain.lock, node)]

    def deliver(
        self,
        node: NodeId,
        message: object,
        ident: Optional[HopId],
        handler: Callable[[object], List[Envelope]],
        send: Callable[[NodeId, List[Envelope]], None],
    ) -> None:
        """Run *handler* on *message* (hop *ident*) arriving at *node*,
        traced, and hand its replies to the fabric's *send*.

        A delivery scope stays open through the reply sends: a reply the
        tracer cannot attribute otherwise lands on this hop's chain.
        """

        self.delivered(node, message, ident)
        scope = (node, threading.get_ident())
        if ident is not None:
            with self._mutex:
                self._scopes[scope] = ident
        try:
            replies = handler(message)
            if replies:
                send(node, replies)
        finally:
            if ident is not None:
                with self._mutex:
                    self._scopes.pop(scope, None)

    def phase(self, node: NodeId, lock_id: LockId, phase: str) -> None:
        """A request of *node* on *lock_id* reached span *phase*: mirror
        the node's own entry of its Raymond queue (enqueued at issue,
        taken at grant)."""

        if phase not in (ISSUED, GRANTED):
            return
        with self._mutex:
            if phase == ISSUED:
                self._queues[(node, lock_id)].append(_SELF)
                return
            queue = self._queues.get((node, lock_id))
            if queue is not None and _SELF in queue:
                queue.remove(_SELF)
                if not queue:
                    del self._queues[(node, lock_id)]

    @contextlib.contextmanager
    def annotated(self, node: NodeId, kind: str) -> Iterator[None]:
        """Mark sends from this (node, thread) with a hop *kind* —
        ``"retransmit"`` / ``"regen"`` / ``"replay"`` around
        recovery-driven dispatch."""

        key = (node, threading.get_ident())
        with self._mutex:
            self._kinds[key] = kind
        try:
            yield
        finally:
            with self._mutex:
                self._kinds.pop(key, None)

    # -- internals --------------------------------------------------------

    def _append_hop(self, trace_id: str, **fields) -> Hop:
        number = self._next_hop.get(trace_id, 0) + 1
        self._next_hop[trace_id] = number
        hop = Hop(hop=number, **fields)
        self._chains[trace_id].hops.append(hop)
        self._hops[(trace_id, number)] = hop
        return hop

    def _new_hop(
        self,
        sender: NodeId,
        dest: NodeId,
        message,
        inner,
        label: str,
        now: float,
        sent_at: Optional[float],
    ) -> HopId:
        """Attribute a fresh hop (mutex held) and return its id.

        A session frame's hop is remembered by the frame's identity;
        ``sent_at=None`` leaves it to :meth:`outbound` to time.
        """

        trace_id, parent = self._resolve(sender, dest, inner, now)
        kind = self._kinds.get((sender, threading.get_ident()), "send")
        hop = self._append_hop(
            trace_id,
            parent=parent,
            sender=sender,
            dest=dest,
            label=label,
            kind=kind,
            sent_at=sent_at,
        )
        ident = (trace_id, hop.hop)
        if inner is not message:
            key = id(message)
            forget = lambda _ref: self._frames.pop(key, None)  # noqa: E731
            self._frames[key] = (weakref.ref(message, forget), ident)
        return ident

    def _mint(
        self,
        trace_id: str,
        origin: NodeId,
        lock: LockId,
        kind: str,
        now: float,
    ) -> TraceChain:
        chain = TraceChain(
            trace_id=trace_id,
            origin=origin,
            lock=lock,
            issued_at=now,
            kind=kind,
        )
        self._chains[trace_id] = chain
        return chain

    def _serial_for(self, base: str) -> int:
        n = self._root_serials.get(base, 0) + 1
        self._root_serials[base] = n
        return n

    def _named(
        self, inner, dest: NodeId
    ) -> Tuple[Optional[str], Optional[Tuple[LockId, NodeId]]]:
        """The trace id of the request *inner* names, and its Naimi key.

        A hierarchical request, grant or token carries a RequestId, whose
        ``"origin.serial"`` is the trace id.  A Naimi request is keyed by
        (lock, origin) and the Naimi token by (lock, dest) — the
        destination *is* the requester it serves.
        """

        rid = getattr(inner, "request_id", None)
        if rid is not None:
            return f"{rid.origin}.{rid.serial}", None
        name = type(inner).__name__
        if name == "NaimiRequestMessage":
            key = (inner.lock_id, inner.origin)
        elif name == "NaimiTokenMessage":
            key = (inner.lock_id, dest)
        else:
            return None, None
        return self._naimi.get(key), key

    def _raymond(self, sender: NodeId, inner) -> Optional[HopId]:
        """The request a Raymond message from *sender* serves: the head
        of *sender*'s queue, which a privilege takes (``None``: the
        node's own request, or none)."""

        name = type(inner).__name__
        if name not in ("RaymondRequestMessage", "RaymondPrivilegeMessage"):
            return None
        queue = self._queues.get((sender, inner.lock_id))
        if not queue:
            return None
        if name == "RaymondPrivilegeMessage":
            head = queue.popleft()
            if not queue:
                del self._queues[(sender, inner.lock_id)]
        else:
            head = queue[0]
        return None if head == _SELF else head

    def _resolve(
        self, sender: NodeId, dest: NodeId, inner, now: float
    ) -> Tuple[str, int]:
        """Pick (trace id, parent hop) for a message about to be sent."""

        # 1. Raymond: the privilege, or the request passed up the tree,
        #    serves the head of the sender's queue.
        served = self._raymond(sender, inner)
        if served is not None:
            return served
        # 2. Request identity: the message names a traced request, and
        #    its parent is the request hop delivered last — a forward
        #    continues it, a grant or token answers it.
        label = fault_label(inner)
        trace_id, key = self._named(inner, dest)
        if trace_id in self._chains:
            return trace_id, self._last_request.get(trace_id, 0)
        # 3. Delivery scope: built inside a traced message's handler.
        scope = self._scopes.get((sender, threading.get_ident()))
        if scope is not None:
            return scope
        # 4. A request leaving its origin: mint a root chain.
        if label == "request":
            origin = getattr(inner, "origin", sender)
            if trace_id is None:
                base = f"{inner.lock_id}:{origin}"
                trace_id = f"{base}#{self._serial_for(base)}"
            self._mint(trace_id, origin, inner.lock_id, "request", now)
            if key is not None:
                self._naimi[key] = trace_id
            return trace_id, 0
        # 5. Grant ancestry: releases / freezes / upgrade fallout from a
        #    node that was granted this lock earlier.
        granted = self._last_granted.get((sender, inner.lock_id))
        if granted is not None:
            return granted
        # 6. Anything else: an aux chain per (label, sender, lock) —
        #    recovery announcements, stray protocol maintenance.
        aux_key = (label, sender, inner.lock_id)
        trace_id = self._aux.get(aux_key)
        if trace_id is None:
            kind = "recovery" if label in _RECOVERY_LABELS else "aux"
            trace_id = f"{label}:{sender}:{inner.lock_id}#aux"
            self._mint(trace_id, sender, inner.lock_id, kind, now)
            self._aux[aux_key] = trace_id
        return trace_id, 0
