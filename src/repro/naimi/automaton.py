"""The Naimi-Tréhel token-based mutual-exclusion automaton [14].

This is the comparison baseline of the paper's evaluation: the best known
average-case message complexity, O(log n), achieved through **path
reversal** — every node along a request's forwarding path points its
probable-owner (``last``) link at the requester, compressing future paths.

The distributed FIFO queue is the chain of ``next`` pointers: the current
tail of the queue learns about the next requester and remembers it; on
release the token is sent straight to that successor.

Like :class:`repro.core.automaton.HierarchicalLockAutomaton` this class is
transport-agnostic (returns envelopes, notifies grants via a listener), so
the exact same simulator and runtime drive both protocols — a requirement
for a fair reproduction of Figures 5 and 6.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from ..core.contract import (
    BOOL,
    INT,
    OPT_NODE,
    LockAutomaton,
    field,
    handles,
    noop_listener,
    recorded,
    register_message,
)
from ..core.messages import Envelope, LockId, NodeId
from ..errors import LockUsageError, ProtocolError
from ..obs.sink import ENQUEUED, ISSUED, RELEASED
from .messages import NaimiRequestMessage, NaimiTokenMessage

register_message(
    NaimiRequestMessage, field("origin", INT), field("fencing_token", INT)
)
register_message(NaimiTokenMessage)

#: Signature of the grant listener: ``(lock_id, ctx)``.
NaimiGrantListener = Callable[[LockId, object], None]


class NaimiAutomaton(LockAutomaton):
    """Per-(node, lock) state of the Naimi-Tréhel protocol.

    Parameters
    ----------
    node_id:
        This node's identity.
    lock_id:
        The lock (exclusive token) this automaton manages.
    last:
        Initial probable-owner pointer; ``None`` iff this node starts as
        the tree root (and token holder).
    listener:
        Called as ``listener(lock_id, ctx)`` when a request is granted.

    The ``obs`` span key is ``(lock_id, origin)`` — one outstanding
    request per node.
    """

    PROTOCOL = "naimi"
    BLANK = {"last": None}
    STATE = (
        field("last", OPT_NODE, "_last"),
        field("next", OPT_NODE, "_next"),
        field("has_token", BOOL, "_has_token"),
        field("in_cs", BOOL, "_in_cs"),
        field("requesting", BOOL, "_requesting"),
        field("fence_floor", INT, "_fence_floor"),
    )

    def __init__(
        self,
        node_id: NodeId,
        lock_id: LockId,
        last: Optional[NodeId],
        listener: NaimiGrantListener = noop_listener,
    ) -> None:
        LockAutomaton.__init__(self, node_id, lock_id, listener)
        # ``last is None`` encodes the paper's ``last == self`` root test.
        self._last = last
        self._next: Optional[NodeId] = None
        self._has_token = last is None
        self._in_cs = False
        self._requesting = False

    def birth(self) -> dict:
        return {"last": self._last}

    @classmethod
    def from_birth(cls, node_id, lock_id, init, listener, clock, options=None):
        return cls(node_id, lock_id, OPT_NODE.decode(init["last"]), listener)

    # ------------------------------------------------------------------
    # Introspection.
    # ------------------------------------------------------------------

    @property
    def has_token(self) -> bool:
        """Whether the token currently rests at this node."""

        return self._has_token

    @property
    def in_critical_section(self) -> bool:
        """Whether the application currently holds the lock here."""

        return self._in_cs

    @property
    def is_requesting(self) -> bool:
        """Whether this node has an unserved request outstanding."""

        return self._requesting

    @property
    def last(self) -> Optional[NodeId]:
        """Probable-owner link (``None`` = this node believes it is root)."""

        return self._last

    @property
    def next_node(self) -> Optional[NodeId]:
        """Successor in the distributed FIFO queue (if any)."""

        return self._next

    def is_idle(self) -> bool:
        """True iff no request, no critical section and no successor."""

        return not (self._requesting or self._in_cs or self._next is not None)

    def snapshot(self):
        """Read-only :class:`repro.obs.live.LockSnapshot` of this node.

        ``last`` is the parent edge toward the believed token and the
        ``next`` successor the one queue entry this node knows about.
        """

        from ..obs.live import LockSnapshot

        return LockSnapshot.exclusive(
            self._lock_id,
            self._has_token,
            self._last,
            self._in_cs,
            self._requesting,
            () if self._next is None else (self._next,),
        )

    # ------------------------------------------------------------------
    # Application API.
    # ------------------------------------------------------------------

    @recorded()
    def request(self, ctx: object = None) -> List[Envelope]:
        """Request the critical section; grant arrives via the listener."""

        if self._requesting or self._in_cs:
            raise LockUsageError(
                f"node {self._node_id} already requested {self._lock_id}"
            )
        self._requesting = True
        self._ctx = ctx
        self._report(ISSUED, (self._lock_id, self._node_id))
        if self._last is None:
            if not self._has_token:
                raise ProtocolError("root without token cannot self-grant")
            self._enter()
            return []
        target = self._last
        self._last = None  # Path reversal: the requester becomes a root.
        return [
            Envelope(
                target,
                NaimiRequestMessage(
                    lock_id=self._lock_id,
                    sender=self._node_id,
                    origin=self._node_id,
                ),
            )
        ]

    @recorded()
    def release(self) -> List[Envelope]:
        """Leave the critical section; pass the token to any successor."""

        if not self._in_cs:
            raise LockUsageError(
                f"node {self._node_id} is not in the CS of {self._lock_id}"
            )
        self._in_cs = False
        self._report(RELEASED)
        if self._next is None:
            return []  # Keep the token until someone asks.
        successor = self._next
        self._next = None
        self._has_token = False
        return [
            Envelope(
                successor,
                NaimiTokenMessage(lock_id=self._lock_id, sender=self._node_id),
            )
        ]

    # ------------------------------------------------------------------
    # Message handlers (``handle()`` itself is the contract's).
    # ------------------------------------------------------------------

    @handles(NaimiRequestMessage)
    def _handle_request(self, msg: NaimiRequestMessage) -> List[Envelope]:
        """Forward along ``last``, or serve/enqueue if this node is root."""

        out: List[Envelope] = []
        if self._last is None:
            # This node is (or believes itself to be) the root.
            if self._requesting or self._in_cs or self._next is not None:
                if self._next is not None:
                    raise ProtocolError(
                        f"node {self._node_id} already has a successor"
                    )
                self._next = msg.origin
                # The requester just joined the distributed queue (it
                # became the token holder's successor).
                self._report(
                    ENQUEUED, (self._lock_id, msg.origin), node=msg.origin
                )
            else:
                self._has_token = False
                out.append(
                    Envelope(
                        msg.origin,
                        NaimiTokenMessage(
                            lock_id=self._lock_id,
                            sender=self._node_id,
                        ),
                    )
                )
        else:
            out.append(
                Envelope(
                    self._last,
                    NaimiRequestMessage(
                        lock_id=self._lock_id,
                        sender=self._node_id,
                        origin=msg.origin,
                    ),
                )
            )
        # Path reversal: future requests will be routed to this requester.
        self._last = msg.origin
        return out

    @handles(NaimiTokenMessage)
    def _handle_token(self, msg: NaimiTokenMessage) -> List[Envelope]:
        """The token arrives: enter the critical section."""

        if not self._requesting:
            raise ProtocolError(
                f"node {self._node_id} received an unrequested token"
            )
        self._has_token = True
        self._enter()
        return []

    def _enter(self) -> None:
        """Complete the pending request."""

        self._requesting = False
        self._in_cs = True
        ctx, self._ctx = self._ctx, None
        self._grant(ctx, (self._lock_id, self._node_id))

    # ------------------------------------------------------------------
    # God-view membership splices (see repro.sim.cluster).
    # ------------------------------------------------------------------

    @recorded(new_last=INT)
    def splice_last(self, new_last: NodeId) -> None:
        """Re-point the probable-owner hint off a spliced-out node.

        God-view maintenance for fault-free membership changes; the
        caller guarantees quiescence and that *new_last* is a live member
        on the path toward the token.
        """

        if new_last == self._node_id:
            raise ProtocolError("a node cannot be its own probable owner")
        self._last = new_last

    @recorded()
    def splice_take_token(self) -> None:
        """Become the token root (transplant from a spliced-out holder)."""

        self._has_token = True
        self._last = None

    @recorded(successor=INT)
    def splice_retire(self, successor: NodeId) -> None:
        """Terminal state of a spliced-out node: idle, pointing away."""

        self._has_token = False
        self._next = None
        if successor != self._node_id:
            self._last = successor

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<NaimiAutomaton node={self._node_id} lock={self._lock_id!r} "
            f"token={self._has_token} in_cs={self._in_cs} "
            f"requesting={self._requesting} last={self._last} "
            f"next={self._next}>"
        )
