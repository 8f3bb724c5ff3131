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
from typing import Callable, Deque, List, Optional, Union

from ..core.contract import (
    BOOL,
    INT,
    OPT_NODE,
    RAW,
    LockAutomaton,
    field,
    handles,
    listing,
    noop_listener,
    recorded,
    register_message,
)
from ..core.messages import Envelope, LockId, NodeId
from ..errors import LockUsageError, ProtocolError
from ..obs.sink import ENQUEUED, ISSUED, RELEASED
from .messages import RaymondPrivilegeMessage, RaymondRequestMessage

#: Sentinel queued when this node itself wants the critical section.
SELF = "self"

register_message(RaymondRequestMessage, field("fencing_token", INT))
register_message(RaymondPrivilegeMessage)

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
        field("queue", listing(RAW, deque), "_request_q"),
        field("fence_floor", INT, "_fence_floor"),
    )
    GAUGES = (("queue_depth", "_request_q"),)

    def __init__(
        self,
        node_id: NodeId,
        lock_id: LockId,
        holder: Optional[NodeId],
        listener: RaymondGrantListener = noop_listener,
    ) -> None:
        LockAutomaton.__init__(self, node_id, lock_id, listener)
        self._holder: Optional[NodeId] = holder  # None = privilege here
        #: FIFO of requesters: neighbours, or SELF.
        self._request_q: Deque[Union[str, NodeId]] = deque()
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

        queue = self._request_q
        return LockSnapshot.exclusive(
            self._lock_id,
            self._holder is None,
            self._holder,
            self._using,
            SELF in queue,
            (self._node_id if entry == SELF else entry for entry in queue),
        )

    # ------------------------------------------------------------------
    # Application API.
    # ------------------------------------------------------------------

    @recorded()
    def request(self, ctx: object = None) -> List[Envelope]:
        """Request the critical section; grant arrives via the listener."""

        if self._using or SELF in self._request_q:
            raise LockUsageError(
                f"node {self._node_id} already requested {self._lock_id}"
            )
        self._ctx = ctx
        self._request_q.append(SELF)
        key = (self._lock_id, self._node_id)
        self._report(ISSUED, key)
        self._report(ENQUEUED, key)
        return self._serve()

    @recorded()
    def release(self) -> List[Envelope]:
        """Leave the critical section; pass the privilege onward if asked."""

        if not self._using:
            raise LockUsageError(
                f"node {self._node_id} is not in the CS of {self._lock_id}"
            )
        self._using = False
        self._report(RELEASED)
        return self._serve()

    # ------------------------------------------------------------------
    # Message handlers (``handle()`` itself is the contract's).
    # ------------------------------------------------------------------

    @handles(RaymondRequestMessage)
    def _handle_request(self, msg: RaymondRequestMessage) -> List[Envelope]:
        self._request_q.append(msg.sender)
        return self._serve()

    @handles(RaymondPrivilegeMessage)
    def _handle_privilege(self, msg: RaymondPrivilegeMessage) -> List[Envelope]:
        if self._holder is None:
            raise ProtocolError(
                f"node {self._node_id} received a privilege it holds"
            )
        self._holder = None
        self._asked = False  # 'asked' is only meaningful toward a holder
        return self._serve()

    def _serve(self) -> List[Envelope]:
        """The two classic procedures, which every event runs back to back.

        ASSIGN_PRIVILEGE hands an idle privilege to the queue head (this
        node's application, or a neighbour); MAKE_REQUEST then asks the
        holder for it once if anyone is still waiting here.
        """

        out: List[Envelope] = []
        if self._holder is None and not self._using and self._request_q:
            head = self._request_q.popleft()
            if head == SELF:
                self._using = True
                ctx, self._ctx = self._ctx, None
                self._grant(ctx, (self._lock_id, self._node_id))
            else:
                self._holder = head
                self._asked = False
                out.append(
                    Envelope(
                        head,
                        RaymondPrivilegeMessage(
                            lock_id=self._lock_id, sender=self._node_id
                        ),
                    )
                )
        if self._holder is not None and not self._asked and self._request_q:
            self._asked = True
            out.append(
                Envelope(
                    self._holder,
                    RaymondRequestMessage(
                        lock_id=self._lock_id, sender=self._node_id
                    ),
                )
            )
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

        if holder == self._node_id:
            raise ProtocolError("a node cannot hold the privilege toward itself")
        self._holder = holder
        self._asked = False

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<RaymondAutomaton node={self._node_id} lock={self._lock_id!r} "
            f"privilege={self.has_privilege} using={self._using} "
            f"holder={self._holder} q={list(self._request_q)} "
            f"asked={self._asked}>"
        )
