"""Causal request tracing: hop records, chains, critical-path attribution.

The tracer reconstructs, per lock request, the *causal chain* of wire
messages it triggered — request → forward hops → grant-by-copyset or
token transfer → release — across all three protocols and every
transport.  The mechanism is deliberately split in two:

* **Automata** only copy the triggering message's
  :class:`~repro.core.messages.TraceContext` onto causally dependent
  replies (``trace=msg.trace``) — a *parent hint*, pure data plumbing
  with no tracer dependency, zero cost when tracing is off.
* **Transports** own the tracer.  At send time they resolve the hint (or
  fall back to request identity, the current delivery scope, or a grant
  ancestry map) into a fresh hop and stamp the outgoing copy; at delivery
  time they record the arrival and open a *delivery scope* so replies
  built inside the handler inherit causality even without a hint.

Stamping replaces envelopes (frozen dataclasses) rather than mutating
them, draws no randomness and sends no messages of its own, so a traced
run is bit-identical to an untraced one in every protocol-visible way.

Hop kinds: ``"send"`` for ordinary hops, ``"retransmit"`` for
session-channel / application-level re-sends of an already stamped
message (recorded as an extra annotated hop sharing the original's
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
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from ..core.contract import FLOAT, INT, RAW, STR, field, listing, record
from ..core.messages import (
    Envelope,
    LockId,
    NodeId,
    TraceContext,
    fault_label,
)

#: ``() -> float`` time source (shared with the owning RunObserver).
Clock = Callable[[], float]

#: Message labels that never become causal hops.
UNTRACED_LABELS = frozenset({"heartbeat", "session-ack"})

#: Labels whose aux chains count as recovery activity.
_RECOVERY_LABELS = frozenset(
    {"orphan-report", "token-probe", "token-ack", "reparent"}
)

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
    #: Extra deliveries of the same stamped message (fault duplicates).
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
    threaded transports (the simulator path never contends).  All public
    entry points are called by transports only — never by automata.
    """

    def __init__(self, clock: Optional[Clock] = None) -> None:
        self._clock: Clock = clock if clock is not None else (lambda: 0.0)
        self._mutex = threading.Lock()
        self._chains: Dict[str, TraceChain] = {}
        self._hops: Dict[Tuple[str, int], Hop] = {}
        self._next_hop: Dict[str, int] = {}
        #: Active request identity → trace id (cleared at grant).
        self._by_request: Dict[Tuple, str] = {}
        #: Last delivered hop per trace (default parent for keyed sends).
        self._last_hop: Dict[str, int] = {}
        #: (node, lock) → (trace id, grant hop) of the latest grant
        #: delivered there; attributes releases/freezes with no hint.
        self._last_granted: Dict[Tuple[NodeId, LockId], Tuple[str, int]] = {}
        #: Stamped upstream (session channel) but not yet on the wire.
        self._pending: set = set()
        #: Stamped hops that crossed the wire at least once.
        self._sent: set = set()
        #: Open delivery scopes / recovery-kind annotations, keyed by
        #: (node, thread ident) so concurrent dispatchers never collide.
        self._scopes: Dict[Tuple[NodeId, int], Tuple[str, int]] = {}
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

    def outbound(self, sender: NodeId, envelope: Envelope) -> Envelope:
        """Record *envelope* leaving *sender*; return the stamped copy.

        Called by every transport at the instant a message is accepted
        onto the wire (after fault-injector drops, where the fabric counts
        the send, so dropped sends never become hops).
        """

        message = envelope.message
        inner = getattr(message, "payload", None) or message
        label = fault_label(inner)
        if label in UNTRACED_LABELS:
            return envelope
        now = self._clock()
        with self._mutex:
            ctx = getattr(message, "trace", None)
            if ctx is not None:
                ident = (ctx.trace_id, ctx.hop)
                if ident in self._pending:
                    # Stamped upstream by the session channel; first
                    # actual wire crossing.
                    self._pending.discard(ident)
                    self._sent.add(ident)
                    self._hops[ident].sent_at = now
                    return envelope
                hop = self._hops.get(ident)
                if (
                    hop is not None
                    and ident in self._sent
                    and hop.sender == sender
                    and hop.dest == envelope.dest
                ):
                    # Verbatim re-send of an already stamped message:
                    # an annotated retransmit hop, sibling of the
                    # original (same parent, no arrival expected).
                    self._append_hop(
                        ctx.trace_id,
                        parent=hop.parent,
                        sender=sender,
                        dest=envelope.dest,
                        label=label,
                        kind="retransmit",
                        sent_at=now,
                    )
                    return envelope
            stamped = self._new_hop(
                sender, envelope.dest, inner, ctx, label, now, sent_at=now
            )
        return Envelope(envelope.dest, self._stamp(message, inner, stamped))

    def stamp_frame(self, sender: NodeId, dest: NodeId, frame):
        """Pre-stamp a session frame before the channel stores it.

        The reliable channel keeps the very object it sends in its
        ``unacked`` buffer, so stamping must happen *before* storage —
        retransmissions then re-send the stamped frame and the tracer
        recognizes them (same trace id and hop) as annotated retransmit
        hops instead of minting fresh ones.  The hop's ``sent_at`` stays
        unset until :meth:`outbound` sees it cross the wire.
        """

        payload = frame.payload
        label = fault_label(payload)
        if label in UNTRACED_LABELS:
            return frame
        now = self._clock()
        with self._mutex:
            ctx = getattr(payload, "trace", None)
            stamped = self._new_hop(
                sender, dest, payload, ctx, label, now, sent_at=None
            )
        return dataclasses.replace(
            frame,
            trace=stamped,
            payload=dataclasses.replace(payload, trace=stamped),
        )

    # -- receive side -----------------------------------------------------

    def delivered(self, node: NodeId, message: object) -> None:
        """Record the arrival of *message* at *node*."""

        ctx = getattr(message, "trace", None)
        if ctx is None:
            return
        inner = getattr(message, "payload", None) or message
        now = self._clock()
        with self._mutex:
            hop = self._hops.get((ctx.trace_id, ctx.hop))
            if hop is None or hop.dest != node:
                # Stale parent hint on a locally delivered message, or a
                # chain the tracer never opened — not an arrival.
                return
            if hop.recv_at is None:
                hop.recv_at = now
            else:
                hop.duplicates += 1
            self._last_hop[ctx.trace_id] = ctx.hop
            chain = self._chains[ctx.trace_id]
            if (
                chain.granted_hop is None
                and chain.kind == "request"
                and node == chain.origin
                and fault_label(inner) in ("grant", "token")
            ):
                chain.granted_hop = ctx.hop
                chain.granted_at = hop.recv_at
                self._last_granted[(node, chain.lock)] = (
                    ctx.trace_id,
                    ctx.hop,
                )
                for key, tid in list(self._by_request.items()):
                    if tid == ctx.trace_id:
                        del self._by_request[key]

    def begin_delivery(self, node: NodeId, message: object) -> None:
        """Open a delivery scope: replies the handler sends from this
        thread inherit *message*'s chain when they carry no hint."""

        ctx = getattr(message, "trace", None)
        if ctx is None:
            return
        with self._mutex:
            hop = self._hops.get((ctx.trace_id, ctx.hop))
            if hop is None or hop.dest != node:
                return
            self._scopes[(node, threading.get_ident())] = (
                ctx.trace_id,
                ctx.hop,
            )

    def end_delivery(self, node: NodeId) -> None:
        with self._mutex:
            self._scopes.pop((node, threading.get_ident()), None)

    def deliver(
        self,
        node: NodeId,
        message: object,
        handler: Callable[[object], List[Envelope]],
        send: Callable[[NodeId, List[Envelope]], None],
    ) -> None:
        """Run *handler* on *message* arriving at *node*, traced, and hand
        its replies to the fabric's *send*.

        The delivery scope stays open through the reply sends, so replies
        without a parent hint still land on this message's causal chain.
        """

        self.delivered(node, message)
        self.begin_delivery(node, message)
        try:
            replies = handler(message)
            if replies:
                send(node, replies)
        finally:
            self.end_delivery(node)

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
        inner,
        ctx: Optional[TraceContext],
        label: str,
        now: float,
        sent_at: Optional[float],
    ) -> TraceContext:
        """Attribute a fresh hop (mutex held) and return its context.

        ``sent_at=None`` pre-stamps it: the hop is pending until
        :meth:`outbound` sees it cross the wire.
        """

        trace_id, parent = self._resolve(sender, dest, inner, ctx, now)
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
        (self._pending if sent_at is None else self._sent).add(
            (trace_id, hop.hop)
        )
        return TraceContext(
            trace_id=trace_id,
            hop=hop.hop,
            parent=parent,
            origin=self._chains[trace_id].origin,
            kind=kind,
        )

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

    def _request_key(self, inner, dest: NodeId) -> Optional[Tuple]:
        """Active-request identity of *inner*, if it names one.

        Hierarchical request/grant/token messages carry a RequestId; a
        Naimi request is keyed by (lock, origin) and the Naimi token by
        (lock, dest) — the destination *is* the requester it serves.
        """

        rid = getattr(inner, "request_id", None)
        if rid is not None:
            return ("rid", rid.origin, rid.serial)
        name = type(inner).__name__
        if name == "NaimiRequestMessage":
            return ("naimi", inner.lock_id, inner.origin)
        if name == "NaimiTokenMessage":
            return ("naimi", inner.lock_id, dest)
        return None

    def _resolve(
        self,
        sender: NodeId,
        dest: NodeId,
        inner,
        ctx: Optional[TraceContext],
        now: float,
    ) -> Tuple[str, int]:
        """Pick (trace id, parent hop) for a message about to be stamped."""

        # 1. Parent hint: the automaton copied the triggering message's
        #    context onto this one.
        if ctx is not None and ctx.trace_id in self._chains:
            return ctx.trace_id, ctx.hop
        # 2. Request identity: the message names an in-flight request.
        key = self._request_key(inner, dest)
        if key is not None and key in self._by_request:
            trace_id = self._by_request[key]
            return trace_id, self._last_hop.get(trace_id, 0)
        # 3. Delivery scope: built inside a traced message's handler.
        scope = self._scopes.get((sender, threading.get_ident()))
        if scope is not None:
            return scope
        # 4. A request leaving its origin: mint a root chain.
        label = fault_label(inner)
        if label == "request":
            origin = getattr(inner, "origin", sender)
            rid = getattr(inner, "request_id", None)
            if rid is not None:
                trace_id = f"{rid.origin}.{rid.serial}"
            else:
                base = f"{inner.lock_id}:{origin}"
                trace_id = f"{base}#{self._serial_for(base)}"
            self._mint(trace_id, origin, inner.lock_id, "request", now)
            if key is not None:
                self._by_request[key] = trace_id
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

    @staticmethod
    def _stamp(message, inner, ctx: TraceContext):
        if inner is not message:
            return dataclasses.replace(
                message,
                trace=ctx,
                payload=dataclasses.replace(inner, trace=ctx),
            )
        return dataclasses.replace(message, trace=ctx)
