"""Raymond's tree-based mutual-exclusion automaton [16].

The paper's related-work section contrasts its dynamic copyset tree with
Raymond's **static** logical tree: here, nodes never re-point their links;
the privilege walks tree edges one hop at a time, and each node keeps a
local FIFO of which neighbour (or itself) wants it next.  Requests are
O(height) ≈ O(log n) on a balanced tree, but without Naimi's path
compression — implementing it lets the benchmarks measure the paper's
"dynamic beats non-adaptive" claim directly.

Classic algorithm state per node: ``holder`` (the neighbour in whose
direction the privilege lies, or self), a ``request_q`` of pending
requesters (neighbours or SELF), and the ``asked`` flag that prevents
duplicate requests on one edge.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, List, Optional, Tuple, Union

from ..core.contract import (
    BOOL,
    INT,
    OPT_NODE,
    Codec,
    LockAutomaton,
    field,
    handles,
    noop_listener,
    recorded,
    register_message,
)
from ..core.messages import Envelope, LockId, NodeId, TraceContext
from ..errors import LockUsageError, ProtocolError
from ..obs.sink import ENQUEUED, GRANTED, ISSUED, RELEASED
from .messages import RaymondPrivilegeMessage, RaymondRequestMessage

#: Sentinel queued when this node itself wants the critical section.
SELF = "self"

register_message(RaymondRequestMessage, field("fencing_token", INT))
register_message(RaymondPrivilegeMessage)

#: The request queue as SELF-or-neighbour entries.  Trace contexts never
#: feed back into protocol state (and a restored process has a fresh
#: tracer), so they are not encoded and restore as ``None``.
REQUEST_Q = Codec(
    lambda queue: [entry for entry, _trace in queue],
    lambda entries: deque(
        (SELF if entry == SELF else int(entry), None) for entry in entries
    ),
)

#: Signature of the grant listener: ``(lock_id, ctx)``.
RaymondGrantListener = Callable[[LockId, object], None]


class RaymondAutomaton(LockAutomaton):
    """Per-(node, lock) state of Raymond's algorithm.

    Parameters
    ----------
    node_id:
        This node's identity.
    lock_id:
        The lock (privilege) this automaton manages.
    holder:
        Initial direction of the privilege: ``None`` iff this node starts
        holding it; otherwise the *neighbour* on the static tree path
        toward the initial holder.
    listener:
        Called as ``listener(lock_id, ctx)`` when a request is granted.

    The ``obs`` span key is ``(lock_id, node)`` — one outstanding request
    per node.
    """

    PROTOCOL = "raymond"
    BLANK = {"holder": None}
    STATE = (
        field("holder", OPT_NODE, "_holder"),
        field("asked", BOOL, "_asked"),
        field("using", BOOL, "_using"),
        field("queue", REQUEST_Q, "_request_q"),
        field("fence_floor", INT, "_fence_floor"),
    )

    def __init__(
        self,
        node_id: NodeId,
        lock_id: LockId,
        holder: Optional[NodeId],
        listener: RaymondGrantListener = noop_listener,
    ) -> None:
        LockAutomaton.__init__(self, node_id, lock_id, listener)
        self._holder: Optional[NodeId] = holder  # None = privilege here
        #: FIFO of (requester, trace context of its request).  The trace
        #: context travels with the queue entry so the privilege (and any
        #: request re-issued on the next edge) rejoins the causal chain of
        #: the request it actually serves; ``None`` for SELF entries (the
        #: transport mints a root chain for a request leaving its origin).
        self._request_q: Deque[
            Tuple[Union[str, NodeId], Optional[TraceContext]]
        ] = deque()
        self._asked = False
        self._using = False

    def birth(self) -> dict:
        return {"holder": self._holder}

    @classmethod
    def from_birth(cls, node_id, lock_id, init, listener, clock, options=None):
        return cls(node_id, lock_id, OPT_NODE.decode(init["holder"]), listener)

    # ------------------------------------------------------------------
    # Introspection.
    # ------------------------------------------------------------------

    @property
    def has_privilege(self) -> bool:
        """Whether the privilege currently rests at this node."""

        return self._holder is None

    @property
    def in_critical_section(self) -> bool:
        """Whether the application currently holds the lock here."""

        return self._using

    @property
    def holder(self) -> Optional[NodeId]:
        """Neighbour toward the privilege (``None`` = here)."""

        return self._holder

    @property
    def queue_length(self) -> int:
        """Length of the local request queue."""

        return len(self._request_q)

    def is_idle(self) -> bool:
        """True iff no CS, no queued requesters, nothing asked."""

        return not (self._using or self._request_q or self._asked)

    def snapshot(self):
        """Read-only :class:`repro.obs.live.LockSnapshot` of this node.

        ``holder`` is the parent edge toward the privilege; a ``SELF``
        entry of ``request_q`` doubles as this node's pending request.
        """

        from ..obs.live import LockSnapshot

        entries = [entry for entry, _trace in self._request_q]
        return LockSnapshot.exclusive(
            self._lock_id,
            self._holder is None,
            self._holder,
            self._using,
            SELF in entries,
            (self._node_id if entry == SELF else entry for entry in entries),
        )

    # ------------------------------------------------------------------
    # Application API.
    # ------------------------------------------------------------------

    @recorded()
    def request(self, ctx: object = None) -> List[Envelope]:
        """Request the critical section; grant arrives via the listener."""

        self._flight_op("request")
        if self._using or any(entry == SELF for entry, _ in self._request_q):
            raise LockUsageError(
                f"node {self._node_id} already requested {self._lock_id}"
            )
        self._ctx = ctx
        self._request_q.append((SELF, None))
        if self.obs is not None:
            key = (self._lock_id, self._node_id)
            self.obs.phase(self._node_id, self._lock_id, key, ISSUED)
            self.obs.phase(self._node_id, self._lock_id, key, ENQUEUED)
            self.obs.queue_depth(
                self._node_id, self._lock_id, len(self._request_q)
            )
        return self._serve("request")

    @recorded()
    def release(self) -> List[Envelope]:
        """Leave the critical section; pass the privilege onward if asked."""

        self._flight_op("release")
        if not self._using:
            raise LockUsageError(
                f"node {self._node_id} is not in the CS of {self._lock_id}"
            )
        self._using = False
        if self.obs is not None:
            self.obs.phase(self._node_id, self._lock_id, None, RELEASED)
        return self._serve("release")

    # ------------------------------------------------------------------
    # Message handlers (``handle()`` itself is the contract's).
    # ------------------------------------------------------------------

    @handles(RaymondRequestMessage)
    def _handle_request(self, msg: RaymondRequestMessage) -> List[Envelope]:
        self._request_q.append((msg.sender, msg.trace))
        if self.obs is not None:
            self.obs.queue_depth(
                self._node_id, self._lock_id, len(self._request_q)
            )
        return self._serve("handle")

    @handles(RaymondPrivilegeMessage)
    def _handle_privilege(self, msg: RaymondPrivilegeMessage) -> List[Envelope]:
        if self._holder is None:
            raise ProtocolError(
                f"node {self._node_id} received a privilege it holds"
            )
        self._holder = None
        self._asked = False  # 'asked' is only meaningful toward a holder
        return self._serve("handle")

    def _serve(self, kind: str) -> List[Envelope]:
        """The two classic procedures, which every event runs back to back.

        ASSIGN_PRIVILEGE hands an idle privilege to the queue head (this
        node's application, or a neighbour); MAKE_REQUEST then asks the
        holder for it once if anyone is still waiting here.
        """

        out: List[Envelope] = []
        if self._holder is None and not self._using and self._request_q:
            head, head_trace = self._request_q.popleft()
            if self.obs is not None:
                self.obs.queue_depth(
                    self._node_id, self._lock_id, len(self._request_q)
                )
            if head == SELF:
                self._using = True
                if self.obs is not None:
                    self.obs.phase(
                        self._node_id,
                        self._lock_id,
                        (self._lock_id, self._node_id),
                        GRANTED,
                    )
                ctx, self._ctx = self._ctx, None
                self._listener(self._lock_id, ctx)
            else:
                self._holder = head
                self._asked = False
                out.append(
                    Envelope(
                        head,
                        RaymondPrivilegeMessage(
                            lock_id=self._lock_id,
                            sender=self._node_id,
                            trace=head_trace,
                        ),
                    )
                )
        if self._holder is not None and not self._asked and self._request_q:
            self._asked = True
            out.append(
                Envelope(
                    self._holder,
                    RaymondRequestMessage(
                        lock_id=self._lock_id,
                        sender=self._node_id,
                        trace=self._request_q[0][1],
                    ),
                )
            )
        self._persist(kind)
        return out

    # ------------------------------------------------------------------
    # God-view membership splices (see repro.sim.cluster).
    # ------------------------------------------------------------------

    @recorded(holder=OPT_NODE)
    def splice_holder(self, holder: Optional[NodeId]) -> None:
        """Re-point the privilege direction after a topology splice.

        God-view maintenance for fault-free membership changes: *holder*
        must be a tree neighbour of this node in the spliced topology (or
        ``None`` to transplant the privilege here).  The caller
        guarantees quiescence, so the ``asked`` flag is clear and stays
        clear.
        """

        self._flight_op("splice_holder", holder=holder)
        if holder == self._node_id:
            raise ProtocolError("a node cannot hold the privilege toward itself")
        self._holder = holder
        self._asked = False
        self._persist("splice")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<RaymondAutomaton node={self._node_id} lock={self._lock_id!r} "
            f"privilege={self.has_privilege} using={self._using} "
            f"holder={self._holder} q={[e for e, _ in self._request_q]} "
            f"asked={self._asked}>"
        )
