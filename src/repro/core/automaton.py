"""The hierarchical locking protocol automaton (Rules 1-7, Fig. 4).

One :class:`HierarchicalLockAutomaton` instance embodies the per-node,
per-lock state of the Desai/Mueller protocol: the parent pointer of the
copyset tree, the token flag, the held/owned/pending modes, the copyset
(children and their owned modes), the local FIFO queue and the frozen-mode
set.

The automaton is **transport-agnostic**: every public method returns the
list of :class:`~repro.core.messages.Envelope` objects to transmit, and
grant notifications are delivered through a caller-supplied listener
callback.  The discrete-event simulator, the threaded runtime, the unit
tests and the model explorer all drive this same class.

Deviations from the paper's (OCR-damaged) pseudocode, argued in
DESIGN.md §3 and §6:

* **Detach on re-parenting.**  When a node acquires the token, or is
  granted a copy by a node other than its current parent, it sends a
  ``Release(NONE)`` to its former parent.  Without this the former parent
  would retain a phantom copyset entry forever, inflating its owned mode
  and eventually deadlocking strong requests.  (The paper's note (b)
  covers the token sender's side of this hand-off; the requester's side is
  implied by the copyset tree remaining a tree.)
* **Freeze messages carry the absolute frozen set** and are re-sent to
  potential granters only when the set changes, so shrinkage doubles as
  the unfreeze notification.
* **Upgrade requests are queued at the front** of the token node's queue.
  The upgrader holds ``U`` (and hence the token — any ``U`` grant is a
  token transfer), so every queued conflicting request is already waiting
  on the upgrader; serving the upgrade first is the only deadlock-free
  order, which is what "Upgrade Mode Precedes Write Mode" (§3.4) requires.
"""

from __future__ import annotations

import dataclasses
from collections import OrderedDict
from typing import Callable, Dict, FrozenSet, List, Optional, Tuple

from ..errors import LockUsageError, ProtocolError
from ..obs.sink import (
    ENQUEUED,
    FROZEN,
    GRANTED,
    ISSUED,
    RELEASED,
    RETRANSMITTED,
)
from .clock import LamportClock
from .contract import (
    BOOL,
    INT,
    MESSAGE,
    MODE,
    MODES,
    NODE_SET,
    OPT_NODE,
    Codec,
    LockAutomaton,
    field,
    handles,
    listing,
    mapping,
    noop_listener,
    optional,
    recorded,
    register_message,
)
from .messages import (
    Envelope,
    FreezeMessage,
    GrantMessage,
    LockId,
    NodeId,
    ReleaseMessage,
    RequestId,
    RequestMessage,
    TokenMessage,
    advance_serial_past,
)
from .modes import (
    LockMode,
    REAL_MODES,
    child_can_grant,
    compatible,
    max_mode,
    freeze_set,
    should_queue,
    strictly_weaker,
    token_can_grant,
    token_transfer_required,
)

#: Signature of the grant listener: ``(lock_id, granted_mode, ctx)``.
GrantListener = Callable[[LockId, LockMode, object], None]


@dataclasses.dataclass(frozen=True)
class ProtocolOptions:
    """Feature switches for ablation studies (DESIGN.md experiments A1-A3).

    All switches default to the full protocol.  Disabling one removes the
    corresponding optimization/mechanism:

    * ``freezing`` — Rule 6.  Off: the token never freezes modes, so
      compatible newcomers can overtake queued incompatible requests
      indefinitely (the §3.3 starvation scenario).
    * ``local_queues`` — Rule 4.1 / Table 2(a).  Off: non-token nodes
      always forward ungrantable requests instead of queueing.
    * ``child_grants`` — Rule 3.1 / Table 1(b).  Off: only the token node
      grants; the copyset tree degenerates to a star below the token.
    * ``local_reentry`` — Rule 2's zero-message path.  Off: every request
      goes through messages even when the owned mode already suffices.
    """

    freezing: bool = True
    local_queues: bool = True
    child_grants: bool = True
    local_reentry: bool = True
    #: Extension (off by default = the published protocol): order local
    #: queues by request priority (higher first; FIFO within a priority
    #: level) instead of pure FIFO.  Implements the "strict priority
    #: ordering" arbitration of the authors' prior work [11, 12].  Strict
    #: priorities deliberately allow a high-priority stream to defer
    #: low-priority requests indefinitely.
    priority_scheduling: bool = False
    #: Extension (off by default = the published protocol, which assumes
    #: reliable FIFO delivery): make every handler idempotent under
    #: message duplication and retransmission, and enable the recovery
    #: hooks (:meth:`evict_child`, :meth:`regenerate_token`, ...) used by
    #: :mod:`repro.faults`.  Duplicate requests are answered by re-sending
    #: the original grant (same attachment epoch); duplicate grants,
    #: tokens and stale-epoch tokens are dropped instead of raising
    #: :class:`~repro.errors.ProtocolError`.
    recovery: bool = False


#: The full protocol as published.
FULL_PROTOCOL = ProtocolOptions()

#: How many past grants each automaton remembers for duplicate-request
#: replay under ``recovery`` (bounded so long runs stay O(1) per node).
RECENT_GRANT_MEMORY = 128


# The protocol's codecs (see repro.core.contract): wire messages first,
# then the two state shapes no other protocol shares.
REQUEST_ID = Codec(
    lambda rid: [rid.timestamp, rid.origin, rid.serial],
    lambda triple: RequestId(*(int(part) for part in triple)),
)
register_message(
    RequestMessage,
    field("origin", INT),
    field("mode", MODE),
    field("id", REQUEST_ID, "request_id"),
    field("upgrade", BOOL),
    field("priority", INT),
    field("fencing_token", INT),
)
register_message(
    GrantMessage,
    field("mode", MODE),
    field("id", REQUEST_ID, "request_id"),
    field("frozen", MODES),
    field("attachment_seq", INT),
)
register_message(
    TokenMessage,
    field("granted_mode", MODE),
    field("id", REQUEST_ID, "request_id"),
    field("prev_owner_mode", MODE),
    field("queue", listing(MESSAGE, tuple)),
    field("frozen", MODES),
    field("prev_owner_seq", INT),
    field("epoch", INT),
)
register_message(
    ReleaseMessage, field("new_mode", MODE), field("attachment_seq", INT)
)
register_message(FreezeMessage, field("frozen", MODES))

_MODE_COUNTS = mapping(MODE, INT)
#: The held multiset; released-to-zero entries are not state.
HELD = Codec(
    lambda held: _MODE_COUNTS.encode(
        {mode: count for mode, count in held.items() if count > 0}
    ),
    _MODE_COUNTS.decode,
)
#: The bounded grant memory, oldest first (its eviction order is state).
RECENT_GRANTS = Codec(
    lambda grants: [
        [REQUEST_ID.encode(rid), str(mode), int(seq)]
        for rid, (mode, seq) in grants.items()
    ],
    lambda rows: OrderedDict(
        (REQUEST_ID.decode(rid), (LockMode(str(mode)), int(seq)))
        for rid, mode, seq in rows
    ),
)


class HierarchicalLockAutomaton(LockAutomaton):
    """Per-(node, lock) state machine of the hierarchical locking protocol.

    Parameters
    ----------
    node_id:
        Identity of the hosting node.
    lock_id:
        Name of the lock this automaton manages.
    clock:
        The node's shared Lamport clock (FIFO request ordering).
    parent:
        Initial parent pointer; ``None`` iff this node starts as the token
        node.  Initially all nodes point (directly or transitively) at the
        token node, as in the paper ("initially, the root is the token
        owner").
    has_token:
        Whether this node initially holds the token.
    listener:
        Callback invoked as ``listener(lock_id, mode, ctx)`` whenever a
        request issued through :meth:`request` or :meth:`upgrade` is
        granted.  May be invoked synchronously from within ``request``.
    """

    PROTOCOL = "hierarchical"
    BLANK = {"parent": None, "token": True}
    REJOIN_RESETS = ("custody_pending",)
    STATE = (
        field("token", BOOL, "_has_token"),
        field("parent", OPT_NODE, "_parent"),
        field("held", HELD, "_held"),
        field("children", mapping(INT, MODE), "_children"),
        field("queue", listing(MESSAGE), "_queue"),
        field("frozen", MODES, "_frozen"),
        field("pending", optional(MESSAGE), "_pending"),
        field("attach_seq", INT, "_attach_seq"),
        field("child_seqs", mapping(INT, INT), "_child_seqs"),
        field("token_epoch", INT, "_token_epoch"),
        field("custody_pending", BOOL, "_custody_pending"),
        field("fence_floor", INT, "_fence_floor"),
        field("lease_fenced", BOOL, "_lease_fenced"),
        # Replay-only: a restart voids them (see ``_rejoin_policy``), so
        # the write-ahead log never carries them.
        field("recent_grants", RECENT_GRANTS, "_recent_grants", durable=False),
        field(
            "provisional_children",
            NODE_SET,
            "_provisional_children",
            durable=False,
        ),
        field("departing", BOOL, "_departing", durable=False),
    )
    GAUGES = (
        ("queue_depth", "_queue"),
        ("copyset_size", "_children"),
        ("freeze_size", "_frozen"),
    )

    def __init__(
        self,
        node_id: NodeId,
        lock_id: LockId,
        clock: LamportClock,
        parent: Optional[NodeId],
        has_token: bool,
        listener: GrantListener = noop_listener,
        options: ProtocolOptions = FULL_PROTOCOL,
    ) -> None:
        if has_token and parent is not None:
            raise ProtocolError("the token node must not have a parent")
        if not has_token and parent is None:
            raise ProtocolError("non-token nodes need an initial parent")
        LockAutomaton.__init__(self, node_id, lock_id, listener)
        self._clock = clock
        self._parent = parent
        self._has_token = has_token
        self._options = options
        self._held: Dict[LockMode, int] = {}
        self._children: Dict[NodeId, LockMode] = {}
        self._queue: List[RequestMessage] = []
        self._frozen: FrozenSet[LockMode] = frozenset()
        self._pending: Optional[RequestMessage] = None
        # Attachment epochs: ``_attach_seq`` is the epoch of this node's
        # current attachment at its parent; ``_child_seqs`` records, per
        # child, the newest attachment epoch this node issued or heard in
        # a release.  Releases and migrations older than that are stale
        # and ignored (see GrantMessage's docstring for the race).
        self._attach_seq = 0
        self._child_seqs: Dict[NodeId, int] = {}
        # Recovery state (only consulted under ``options.recovery``):
        # the token incarnation floor — tokens with a lower epoch are
        # stale copies from before a regeneration — and a bounded memory
        # of grants issued, so a duplicated/retransmitted request can be
        # answered by replaying the original grant verbatim (same mode,
        # same attachment epoch) instead of minting a conflicting one.
        self._token_epoch = 0
        self._recent_grants: "OrderedDict[object, Tuple[LockMode, int]]" = (
            OrderedDict()
        )
        # Custody and durable-rejoin state (only meaningful under
        # ``options.recovery``): while ``_custody_pending`` a restored,
        # regenerated or handed-off token holder answers probes but grants
        # nothing — its custody is unconfirmed until the fencing
        # handshake settles.
        # ``_provisional_children`` holds restored copyset entries not yet
        # re-confirmed by live child activity; they over-approximate the
        # owned mode (safe: blocks, never violates Rule 1) and are expired
        # at the end of the rejoin settle window to restore liveness.
        self._custody_pending = False
        self._provisional_children: set = set()
        # Lease fencing (recovery extension, see repro.leases): while
        # ``_lease_fenced`` (this node lost quorum contact past its lease
        # duration and force-released its holds) the automaton grants
        # nothing, like custody fencing.
        self._lease_fenced = False
        # Graceful-departure state (see repro.membership): a departing
        # node grants nothing and refuses new local requests — it only
        # forwards, drains and hands off, so the copyset around it can
        # be spliced without a Rule-1 window.
        self._departing = False

    # ------------------------------------------------------------------
    # Introspection (read-only views used by tests, monitors, metrics).
    # ------------------------------------------------------------------

    @property
    def has_token(self) -> bool:
        """Whether this node currently holds the token (is the root)."""

        return self._has_token

    @property
    def parent(self) -> Optional[NodeId]:
        """Current parent pointer (``None`` at the token node)."""

        return self._parent

    @property
    def attachment_seq(self) -> int:
        """Epoch of the current attachment to the parent (a new one for
        every re-attachment, a token transfer's included)."""

        return self._attach_seq

    @property
    def token_epoch(self) -> int:
        """Highest token incarnation observed (recovery extension)."""

        return self._token_epoch

    @property
    def recent_grant_keys(self) -> Tuple[object, ...]:
        """Request ids of remembered grants (for explorer signatures)."""

        return tuple(self._recent_grants)

    @property
    def lease_fenced(self) -> bool:
        """True once this node self-fenced after losing quorum contact."""

        return self._lease_fenced

    @property
    def departing(self) -> bool:
        """True while this node is gracefully leaving (membership layer)."""

        return self._departing

    def child_attachment_seq(self, node: NodeId) -> int:
        """Recorded attachment epoch for child *node* (0 if unrecorded)."""

        return self._child_seqs.get(node, 0)

    @property
    def children(self) -> Dict[NodeId, LockMode]:
        """Copy of the copyset: child node → its recorded owned mode."""

        return dict(self._children)

    @property
    def frozen_modes(self) -> FrozenSet[LockMode]:
        """Modes currently frozen at this node (Rule 6)."""

        return self._frozen

    @property
    def queue_length(self) -> int:
        """Number of locally queued foreign/own requests."""

        return len(self._queue)

    @property
    def queued_requests(self) -> Tuple[RequestMessage, ...]:
        """Snapshot of the local FIFO queue."""

        return tuple(self._queue)

    @property
    def pending_mode(self) -> LockMode:
        """The node's own in-flight request mode (``NONE`` if none)."""

        return self._pending.mode if self._pending is not None else LockMode.NONE

    @property
    def held_modes(self) -> Dict[LockMode, int]:
        """Multiset of modes this node's application currently holds."""

        return {mode: count for mode, count in self._held.items() if count > 0}

    def held_mode(self) -> LockMode:
        """Strongest mode currently held locally (``M_H``)."""

        best = LockMode.NONE
        for mode, count in self._held.items():
            if count > 0 and mode.strength > best.strength:
                best = mode
        return best

    def owned_mode(self) -> LockMode:
        """Owned mode ``M_O`` (Definition 3): strongest held in the subtree.

        Computed from local knowledge only — the node's own holds, then
        the recorded owned modes of its copyset children.  Where ``U``
        and ``IW`` tie the first met wins (:func:`max_mode`'s order: it
        decides which release is sent upward).
        """

        return max_mode(self._children.values(), self.held_mode())

    def is_idle(self) -> bool:
        """True iff this automaton holds nothing and has no activity."""

        return (
            not any(self._held.values())
            and not self._children
            and not self._queue
            and self._pending is None
        )

    def snapshot(self):
        """Read-only structured view for live monitoring.

        Returns a :class:`repro.obs.live.LockSnapshot`.  This is a pure
        read: it never mutates protocol state, touches RNG streams or
        emits messages, so monitored runs stay bit-identical to
        unmonitored ones.
        """

        from ..obs.live import LockSnapshot, QueueEntry

        return LockSnapshot(
            lock=self._lock_id,
            believes_token=self._has_token,
            parent=self._parent,
            children=tuple(
                sorted(
                    (child, str(mode))
                    for child, mode in self._children.items()
                )
            ),
            held=tuple(
                sorted(
                    (str(mode), count)
                    for mode, count in self._held.items()
                    if count > 0
                )
            ),
            pending=(
                str(self._pending.mode) if self._pending is not None else None
            ),
            queue=tuple(
                QueueEntry(
                    origin=msg.origin,
                    mode=str(msg.mode),
                    key=f"{msg.request_id.origin}.{msg.request_id.serial}",
                )
                for msg in self._queue
            ),
            frozen=tuple(sorted(str(mode) for mode in self._frozen)),
            token_epoch=self._token_epoch,
            fenced=self._lease_fenced,
        )

    # ------------------------------------------------------------------
    # Application API: request / release / upgrade.
    # ------------------------------------------------------------------

    def _grants_blocked(self) -> bool:
        """True while this automaton must not self-grant or serve grants.

        Covers both fencing regimes — token custody awaiting its
        members' answers, and a lease self-fence after quorum loss — plus
        a graceful departure in progress.
        """

        return self._custody_pending or self._lease_fenced or self._departing

    def grantable_locally(self, mode: LockMode) -> bool:
        """Rule 2: whether a request for *mode* is granted here at once,
        without messages (what :meth:`request` and try-locks decide on)."""

        owned = self.owned_mode()
        if self._has_token:
            return (
                token_can_grant(owned, mode)
                and mode not in self._frozen
                and not self._grants_blocked()
            )
        return (
            self._options.local_reentry
            and child_can_grant(owned, mode)
            and mode not in self._frozen
            and not self._lease_fenced
        )

    @recorded(mode=MODE, priority=INT)
    def request(
        self, mode: LockMode, ctx: object = None, priority: int = 0
    ) -> List[Envelope]:
        """Request the lock in *mode* (Rule 2).

        Returns the protocol messages to transmit.  The grant is reported
        through the listener — possibly synchronously, when the request is
        resolved locally without messages (the paper's key optimization:
        a node already owning a compatible mode at least as strong enters
        its critical section immediately).

        *priority* only matters under ``ProtocolOptions.priority_scheduling``.
        """

        if mode is LockMode.NONE:
            raise LockUsageError("cannot request the empty mode")
        if self._departing:
            raise LockUsageError(
                f"node {self._node_id} is departing and no longer "
                f"accepts requests for {self._lock_id}"
            )
        if self._pending is not None:
            raise LockUsageError(
                f"node {self._node_id} already has a pending request "
                f"for {self._lock_id}"
            )
        if self.grantable_locally(mode):
            # Rule 2, local path: no messages at all.
            self._acquire_locally(mode, ctx)
            return []
        request = self._make_own_request(mode, ctx, priority)
        if self._has_token:
            self._enqueue(request)
            return self._refresh_frozen()
        return [self._forward(request)]

    @recorded(mode=MODE)
    def release(self, mode: LockMode) -> List[Envelope]:
        """Release one hold of *mode* (Rule 5).

        At the token node this re-examines the local queue; at a non-token
        node it propagates a release to the parent iff the owned mode
        weakened (Rule 5.2).
        """

        if self._held.get(mode, 0) <= 0:
            raise LockUsageError(
                f"node {self._node_id} does not hold {mode} on {self._lock_id}"
            )
        if (
            mode is LockMode.U
            and self._pending is not None
            and self._pending.upgrade
        ):
            raise LockUsageError("cannot release U while an upgrade is pending")
        owned_before = self.owned_mode()
        self._held[mode] -= 1
        self._report(RELEASED, mode=mode)
        return self._after_owned_maybe_changed(owned_before)

    @recorded()
    def upgrade(self, ctx: object = None) -> List[Envelope]:
        """Upgrade a held ``U`` lock to ``W`` atomically (Rule 7).

        The holder of ``U`` is always the token node (every ``U`` grant is
        a token transfer), so the conversion is a purely local affair: it
        completes immediately when no other hold exists anywhere, and
        otherwise waits — with ``IR``/``R`` frozen — for the copyset to
        drain.  The ``U`` hold is never given up in between, which is
        exactly how upgrade locks prevent the read-then-write deadlock.
        """

        if self._held.get(LockMode.U, 0) <= 0:
            raise LockUsageError(
                f"node {self._node_id} holds no U lock on {self._lock_id}"
            )
        if not self._has_token:
            raise ProtocolError(
                "a U holder must be the token node; state is corrupted"
            )
        if self._pending is not None:
            raise LockUsageError("a request is already pending on this lock")
        if self._upgrade_possible_now() and not self._grants_blocked():
            self._swap_u_for_w(ctx)
            return []
        request = self._make_own_request(LockMode.W, ctx, upgrade=True)
        # Upgrades take precedence over queued requests (§3.4): every
        # queued conflicting request is blocked on this node's U anyway.
        self._queue.insert(0, request)
        self._report(ENQUEUED, request.request_id, LockMode.W)
        return self._refresh_frozen()

    @recorded(held=MODE, to=MODE)
    def downgrade(self, held: LockMode, to: LockMode) -> List[Envelope]:
        """Atomically weaken a hold of *held* to *to* (extension).

        The CORBA concurrency service's ``change_mode`` allows weakening a
        held lock without a release/re-acquire window.  The swap is safe
        exactly when every mode compatible with *held* is also compatible
        with *to* (so no concurrent holder becomes conflicting) and *to*
        is strictly weaker.  Legal downgrades: W→{IW,U,R,IR}, U→{R,IR},
        IW→{IR}, R→{IR}.  Illegal ones (e.g. IW→U, which would conflict
        with a concurrent IW holder) raise :class:`LockUsageError`.
        """

        if self._held.get(held, 0) <= 0:
            raise LockUsageError(
                f"node {self._node_id} does not hold {held} on {self._lock_id}"
            )
        if to is LockMode.NONE:
            raise LockUsageError("downgrade target may not be NONE; release instead")
        if not strictly_weaker(to, held):
            raise LockUsageError(f"{to} is not strictly weaker than {held}")
        for other in REAL_MODES:
            if compatible(held, other) and not compatible(to, other):
                raise LockUsageError(
                    f"downgrade {held}→{to} would conflict with concurrent "
                    f"{other} holders"
                )
        if self._pending is not None and self._pending.upgrade:
            raise LockUsageError("cannot downgrade while an upgrade is pending")
        owned_before = self.owned_mode()
        self._held[held] -= 1
        self._held[to] = self._held.get(to, 0) + 1
        # The old hold's span closes; the weakened hold is a fresh
        # locally-granted span so a later release() can match it.
        self._report(RELEASED, mode=held)
        self._report(GRANTED, mode=to)
        return self._after_owned_maybe_changed(owned_before)

    # ------------------------------------------------------------------
    # Message handlers (``handle()`` itself is the contract's).
    # ------------------------------------------------------------------

    @handles(RequestMessage)
    def _handle_request(self, msg: RequestMessage) -> List[Envelope]:
        """Rule 3 (grant), Rule 4 (queue/forward) for an incoming request."""

        self._clock.observe(msg.request_id.timestamp)
        if self._options.recovery:
            if msg.origin == self._node_id and (
                self._pending is None
                or self._pending.request_id != msg.request_id
            ):
                # An echo of our own request that is no longer pending
                # (duplicated in flight, or retransmitted after the grant
                # raced it).  Re-granting it would corrupt the granter's
                # copyset record for us; the request is already settled.
                return []
            if msg.request_id in self._recent_grants:
                return [self._replay_grant(msg)]
            if any(q.request_id == msg.request_id for q in self._queue):
                # Already queued here; the retransmit changes nothing.
                return []
        owned = self.owned_mode()
        if self._has_token:
            if (
                token_can_grant(owned, msg.mode)
                and msg.mode not in self._frozen
                and not self._grants_blocked()
            ):
                return self._grant_from_token(msg)
            self._enqueue(msg)
            return self._refresh_frozen()
        if (
            self._options.child_grants
            and child_can_grant(owned, msg.mode)
            and msg.mode not in self._frozen
            and msg.origin != self._node_id
            and not self._lease_fenced
            and not self._departing
        ):
            return [self._grant_copy(msg)]
        if (
            self._options.local_queues
            and self._pending is not None
            and msg.origin != self._node_id
            and should_queue(self._pending.mode, msg.mode)
        ):
            self._enqueue(msg)
            return []
        return [self._forward(msg)]

    @handles(GrantMessage)
    def _handle_grant(self, msg: GrantMessage) -> List[Envelope]:
        """A granted copy arrives: attach below the granter, serve queue."""

        pending = self._pending
        # A root (a regenerated token queues its request at home) is
        # attached under no granter.
        if self._has_token or pending is None or pending.request_id != msg.request_id:
            if self._options.recovery:
                if (
                    self._parent == msg.sender
                    and self._attach_seq == msg.attachment_seq
                ):
                    # Replay of the attachment we already live under.
                    return []
                if self._parent == msg.sender:
                    if msg.attachment_seq < self._attach_seq:
                        # Minted before our current attachment (a cached
                        # re-grant that lost a race, or a stale duplicate
                        # granted after we re-homed here): adopting it
                        # would roll the attachment back.  Our owned mode
                        # under the current one erases what it recorded.
                        return [
                            self._release_to(msg.sender, self.owned_mode())
                        ]
                    # The granter re-answered a stale queued duplicate and
                    # re-recorded us under a fresh attachment epoch; adopt
                    # it and re-assert our true owned mode, otherwise our
                    # future releases look stale and the copyset leaks.
                    self._attach_seq = msg.attachment_seq
                    return [
                        self._release_to(msg.sender, self.owned_mode())
                    ]
                # A granter we are not attached under just recorded us as
                # a child; erase that ghost entry or its copyset pins an
                # owned mode nobody holds.
                return [
                    self._release_to(
                        msg.sender, LockMode.NONE, msg.attachment_seq
                    )
                ]
            raise ProtocolError(
                f"node {self._node_id} received an unexpected grant "
                f"for {self._lock_id}"
            )
        out: List[Envelope] = []
        owned_before = self.owned_mode()
        old_parent = self._parent
        old_seq = self._attach_seq
        self._parent = msg.sender
        self._frozen = msg.frozen
        self._attach_seq = msg.attachment_seq
        ctx = self._ctx
        self._pending = None
        self._ctx = None
        if old_parent is not None and old_parent != msg.sender:
            if owned_before is not LockMode.NONE:
                # Detach from the former parent: our whole subtree is now
                # accounted for under the granter.
                out.append(self._release_to(old_parent, LockMode.NONE, old_seq))
        self._held[pending.mode] = self._held.get(pending.mode, 0) + 1
        owned_now = self.owned_mode()
        if owned_now is not pending.mode:
            # Defensive update so the new parent's copyset entry dominates
            # our actual owned mode (it normally already does).
            out.append(self._release_to(msg.sender, owned_now))
        self._grant(ctx, pending.request_id, pending.mode)
        out.extend(self._drain_queue_nontoken())
        return out

    @handles(TokenMessage)
    def _handle_token(self, msg: TokenMessage) -> List[Envelope]:
        """The token arrives: become the root, merge queues, serve them.

        Normally the token answers this node's pending request, which is
        granted on the spot.  Under recovery the sender may instead have
        answered a stale queued duplicate of a request that was settled
        another way.  The token is nonetheless genuine — discarding it
        would wedge the lock space forever — so the node takes custody
        without granting: its own outstanding request (if any) joins the
        merged queue and is served from there.
        """

        if self._options.recovery and msg.epoch < self._token_epoch:
            # A stale token from before a regeneration; discard it so the
            # lock space cannot end up with two live tokens.
            return []
        if self._has_token:
            if self._options.recovery:
                return []  # Duplicate of the transfer we already received.
            raise ProtocolError(
                f"node {self._node_id} received a token it already holds"
            )
        answered = (
            self._pending is not None
            and self._pending.request_id == msg.request_id
        )
        if not answered and not self._options.recovery:
            raise ProtocolError(
                f"node {self._node_id} received an unexpected token "
                f"for {self._lock_id}"
            )
        out: List[Envelope] = []
        owned_before = self.owned_mode()
        old_parent = self._parent
        old_seq = self._attach_seq
        self._has_token = True
        self._parent = None
        self._frozen = msg.frozen
        self._token_epoch = msg.epoch
        self._attach_seq = self._mint_serial()
        if old_parent is not None and old_parent != msg.sender:
            if owned_before is not LockMode.NONE:
                out.append(self._release_to(old_parent, LockMode.NONE, old_seq))
        self._child_seqs[msg.sender] = msg.prev_owner_seq
        if msg.prev_owner_mode is not LockMode.NONE:
            self._children[msg.sender] = msg.prev_owner_mode
        merged = list(self._queue)
        if answered:
            pending, ctx = self._pending, self._ctx
            self._pending = None
            self._ctx = None
            self._held[pending.mode] = self._held.get(pending.mode, 0) + 1
            # Origins first: they differ for every entry but a duplicate of
            # our own request, and ``RequestId.__eq__`` is a Python frame.
            answered_id = pending.request_id
            merged += [
                q
                for q in msg.queue
                if q.request_id.origin != answered_id.origin
                or q.request_id != answered_id
            ]
        else:
            merged += msg.queue
            if self._pending is not None and self._pending.request_id not in {
                q.request_id for q in merged
            }:
                merged.append(self._pending)
        merged.sort(key=self._queue_sort_key)
        if self._options.recovery:
            # A duplicated request may have been queued at two different
            # hops and now meet in the merged queue; keep the first.
            seen, unique = set(), []
            for entry in merged:
                if entry.request_id not in seen:
                    seen.add(entry.request_id)
                    unique.append(entry)
            merged = unique
        self._queue = merged
        self._provisional_children.discard(msg.sender)
        if answered:
            self._grant(ctx, pending.request_id, pending.mode)
        else:
            self._report("adopt-token")
        out.extend(self._check_queue())
        return out

    @handles(ReleaseMessage)
    def _handle_release(self, msg: ReleaseMessage) -> List[Envelope]:
        """A child's owned mode changed (Rule 5): update the copyset."""

        recorded_seq = self._child_seqs.get(msg.sender)
        if recorded_seq is not None and msg.attachment_seq < recorded_seq:
            # Stale: sent before the attachment currently on record.
            return []
        if (
            not self._has_token
            and msg.sender == self._parent
            and msg.attachment_seq < self._attach_seq
        ):
            # Crossed lineage: our own parent announcing itself as our
            # child, decided before we attached under it (e.g. its
            # reassert to the old pre-regeneration parent racing our
            # custody-fence demotion).  Recording it would make each
            # side a child of the other, pinning both owned modes at
            # the announced mode forever.  The newer attachment
            # decision — ours — wins; the sender's pointer is the
            # stale one and is corrected by the lineage it raced.
            return []
        owned_before = self.owned_mode()
        if msg.new_mode is LockMode.NONE:
            self._children.pop(msg.sender, None)
        else:
            self._children[msg.sender] = msg.new_mode
        if recorded_seq is None or msg.attachment_seq > recorded_seq:
            self._child_seqs[msg.sender] = msg.attachment_seq
        # A live release re-confirms a restored (provisional) child entry.
        self._provisional_children.discard(msg.sender)
        return self._after_owned_maybe_changed(owned_before)

    @handles(FreezeMessage)
    def _handle_freeze(self, msg: FreezeMessage) -> List[Envelope]:
        """Adopt the token's frozen set and propagate it (Rule 6)."""

        if msg.sender != self._parent:
            # Stale freeze from a former parent; current state supersedes.
            return []
        old = self._frozen
        self._frozen = msg.frozen
        return self._propagate_freeze(old, msg.frozen)

    # ------------------------------------------------------------------
    # Granting helpers.
    # ------------------------------------------------------------------

    def _grant_from_token(self, msg: RequestMessage) -> List[Envelope]:
        """Serve a request at the token node (Rule 3.2)."""

        if msg.origin == self._node_id:
            # The token node's own queued request becomes servable.
            self._serve_own(msg)
            return []
        if token_transfer_required(self.owned_mode(), msg.mode):
            return self._transfer_token(msg)
        return [self._grant_copy(msg)]

    def _serve_own(self, entry: RequestMessage) -> None:
        """Grant this token node its own request *entry*: the atomic U→W
        swap for an upgrade, a local grant otherwise."""

        pending, ctx = self._pending, self._ctx
        if pending is None or pending.request_id != entry.request_id:
            if self._options.recovery:
                return  # A stale duplicate of an already-served request.
            raise ProtocolError("token node lost track of its own request")
        self._pending = None
        self._ctx = None
        if entry.upgrade:
            self._swap_u_for_w(ctx, key=entry.request_id)
        else:
            self._acquire_locally(entry.mode, ctx, key=entry.request_id)

    def _swap_u_for_w(self, ctx: object, key: object = None) -> None:
        """Rule 7's atomic conversion: the ``U`` hold becomes ``W``."""

        self._held[LockMode.U] -= 1
        self._report(RELEASED, mode=LockMode.U)
        self._acquire_locally(LockMode.W, ctx, key=key)

    def _grant_copy(self, msg: RequestMessage) -> Envelope:
        """Grant a copy: the requester becomes a child (Rule 3, case 1)."""

        recorded = self._children.get(msg.origin, LockMode.NONE)
        self._children[msg.origin] = max_mode((recorded, msg.mode))
        self._provisional_children.discard(msg.origin)
        attachment_seq = self._mint_serial()
        self._child_seqs[msg.origin] = attachment_seq
        if self._options.recovery:
            self._recent_grants[msg.request_id] = (msg.mode, attachment_seq)
            while len(self._recent_grants) > RECENT_GRANT_MEMORY:
                self._recent_grants.popitem(last=False)
        return self._grant_envelope(msg, msg.mode, attachment_seq)

    def _replay_grant(self, msg: RequestMessage) -> Envelope:
        """Re-answer a duplicated request with its original grant.

        The replay carries the **same** attachment epoch as the first
        grant: minting a fresh one would out-date the child's recorded
        epoch and make its subsequent releases look stale (a silent
        copyset leak).  The duplicate grant itself is dropped by the
        (recovery-mode) receiver if the original already arrived.
        """

        return self._grant_envelope(msg, *self._recent_grants[msg.request_id])

    def _grant_envelope(
        self, msg: RequestMessage, mode: LockMode, attachment_seq: int
    ) -> Envelope:
        """The grant of *mode* answering *msg* under *attachment_seq*."""

        return Envelope(
            msg.origin,
            GrantMessage(
                lock_id=self._lock_id,
                sender=self._node_id,
                mode=mode,
                request_id=msg.request_id,
                frozen=self._frozen,
                attachment_seq=attachment_seq,
            ),
        )

    def _transfer_token(self, msg: RequestMessage) -> List[Envelope]:
        """Hand the token (and local queue) to the requester (Rule 3.2)."""

        self._children.pop(msg.origin, None)
        self._provisional_children.discard(msg.origin)
        # Filter out releases the requester sent before becoming the root.
        self._child_seqs[msg.origin] = self._mint_serial()
        prev_owner_mode = self.owned_mode()
        queue = tuple(self._queue)
        self._queue = []
        self._has_token = False
        self._parent = msg.origin
        self._attach_seq = self._mint_serial()
        token = TokenMessage(
            lock_id=self._lock_id,
            sender=self._node_id,
            granted_mode=msg.mode,
            request_id=msg.request_id,
            prev_owner_mode=prev_owner_mode,
            queue=queue,
            frozen=self._frozen,
            prev_owner_seq=self._attach_seq,
            epoch=self._token_epoch,
        )
        return [Envelope(msg.origin, token)]

    def _acquire_locally(
        self, mode: LockMode, ctx: object, key: object = None
    ) -> None:
        """Enter the critical section without messages (Rule 2 / self-grant).

        *key* identifies the span of an already-issued request being
        served from the queue; ``None`` means a zero-message local grant,
        whose span ``_grant`` mints so it still appears in traces.
        """

        self._held[mode] = self._held.get(mode, 0) + 1
        self._grant(ctx, key, mode)

    # ------------------------------------------------------------------
    # Queue management.
    # ------------------------------------------------------------------

    def _queue_sort_key(self, msg: RequestMessage):
        """Service order: upgrades first; then priority; then FIFO
        (``RequestId.sort_key()``, flattened: one frame per entry)."""

        request_id = msg.request_id
        return (
            0 if msg.upgrade else 1,
            -msg.priority if self._options.priority_scheduling else 0,
            request_id.timestamp,
            request_id.origin,
            request_id.serial,
        )

    def _enqueue(self, msg: RequestMessage) -> None:
        """Insert a request into the local queue (FIFO, or priority order
        under the priority-scheduling extension)."""

        self._queue.append(msg)
        if self._options.priority_scheduling:
            self._queue.sort(key=self._queue_sort_key)
        self._report(ENQUEUED, msg.request_id, msg.mode, msg.origin)
        if msg.mode in self._frozen:
            self._report(FROZEN, msg.request_id, msg.mode, msg.origin)

    def _check_queue(self) -> List[Envelope]:
        """Serve the local queue head-first at the token node (Fig. 4).

        Strictly FIFO: stops at the first unservable head.  The frozen set
        exists to protect the queue, so the head itself is served as soon
        as the owned mode allows, regardless of freezing.
        """

        if not self._has_token or self._grants_blocked():
            return []
        out: List[Envelope] = []
        while self._queue:
            head = self._queue[0]
            owned = self.owned_mode()
            if head.upgrade:
                if not self._upgrade_possible_now():
                    break
            elif not token_can_grant(owned, head.mode):
                break
            self._queue.pop(0)
            # An upgrade entry can be foreign (``reattach`` forwards one);
            # it then matches no pending request and is dropped as stale.
            if head.upgrade or head.origin == self._node_id:
                self._serve_own(head)
                continue
            if token_transfer_required(owned, head.mode):
                out.extend(self._transfer_token(head))
                return out  # The queue travelled with the token.
            out.append(self._grant_copy(head))
        out.extend(self._refresh_frozen())
        return out

    def _drain_queue_nontoken(self) -> List[Envelope]:
        """After a copy grant: serve or forward everything queued (Rule 4)."""

        out: List[Envelope] = []
        queued, self._queue = self._queue, []
        for msg in queued:
            owned = self.owned_mode()
            if (
                self._options.child_grants
                and child_can_grant(owned, msg.mode)
                and msg.mode not in self._frozen
            ):
                out.append(self._grant_copy(msg))
            else:
                out.append(self._forward(msg))
        return out

    def _upgrade_possible_now(self) -> bool:
        """True iff the atomic U→W swap can happen right now (Rule 7)."""

        only_hold_is_u = (
            self._held.get(LockMode.U, 0) == 1
            and sum(self._held.values()) == 1
        )
        return only_hold_is_u and not self._children

    # ------------------------------------------------------------------
    # Release / freeze plumbing.
    # ------------------------------------------------------------------

    def _after_owned_maybe_changed(self, owned_before: LockMode) -> List[Envelope]:
        """Common tail of release paths (Rule 5)."""

        out: List[Envelope] = []
        if self._has_token:
            out.extend(self._check_queue())
            return out
        owned_now = self.owned_mode()
        if owned_now is not owned_before and self._parent is not None:
            out.append(self._release_to(self._parent, owned_now))
        return out

    def _release_to(
        self, dest: NodeId, new_mode: LockMode, seq: Optional[int] = None
    ) -> Envelope:
        """Build a release/update message toward *dest*."""

        return Envelope(
            dest,
            ReleaseMessage(
                lock_id=self._lock_id,
                sender=self._node_id,
                new_mode=new_mode,
                attachment_seq=self._attach_seq if seq is None else seq,
            ),
        )

    def _refresh_frozen(self) -> List[Envelope]:
        """Recompute the frozen set from the queue, notify granters (Rule 6)."""

        if not self._has_token or self._grants_blocked():
            return []
        new: FrozenSet[LockMode] = frozenset()
        if self._options.freezing and self._queue:
            # Table 2(b) depends on each request's mode only, so a census
            # of the distinct queued modes (at most five) stands for the
            # whole queue.
            owned = self.owned_mode()
            new = new.union(
                *[freeze_set(owned, mode) for mode in {q.mode for q in self._queue}]
            )
        if new == self._frozen:
            return []
        old = self._frozen
        self._frozen = new
        return self._propagate_freeze(old, new)

    def _propagate_freeze(
        self, old: FrozenSet[LockMode], new: FrozenSet[LockMode]
    ) -> List[Envelope]:
        """Send the new absolute frozen set to affected potential granters."""

        changed = old ^ new
        if not changed:
            return []
        out: List[Envelope] = []
        for child, child_mode in self._children.items():
            if any(child_can_grant(child_mode, mode) for mode in changed):
                out.append(
                    Envelope(
                        child,
                        FreezeMessage(
                            lock_id=self._lock_id,
                            sender=self._node_id,
                            frozen=new,
                        ),
                    )
                )
        return out

    # ------------------------------------------------------------------
    # Request construction / forwarding.
    # ------------------------------------------------------------------

    def _make_own_request(
        self, mode: LockMode, ctx: object, priority: int = 0, upgrade: bool = False
    ) -> RequestMessage:
        """Create and register this node's own request for *mode* (an
        ``upgrade`` request is Rule 7's ``U``→``W`` conversion)."""

        timestamp = self._clock.tick()
        request = RequestMessage(
            lock_id=self._lock_id,
            sender=self._node_id,
            origin=self._node_id,
            mode=mode,
            request_id=RequestId(
                timestamp=timestamp,
                origin=self._node_id,
                serial=self._mint_serial(),
            ),
            upgrade=upgrade,
            priority=priority,
        )
        self._pending = request
        self._ctx = ctx
        self._report(ISSUED, request.request_id, mode)
        return request

    def _forward(self, msg: RequestMessage) -> Envelope:
        """Forward a request one hop up the copyset tree."""

        if self._parent is None:
            raise ProtocolError(
                f"node {self._node_id} has no parent to forward a request to"
            )
        return Envelope(
            self._parent, dataclasses.replace(msg, sender=self._node_id)
        )

    def _forward_queue(
        self, skip: Optional[Callable[[RequestMessage], bool]] = None
    ) -> List[Envelope]:
        """Re-forward the local queue to the parent; the entries *skip*
        selects stay queued."""

        queued, self._queue = self._queue, []
        out: List[Envelope] = []
        for msg in queued:
            if skip is not None and skip(msg):
                self._queue.append(msg)
            else:
                out.append(self._forward(msg))
        return out

    def _reparent(self, new_parent: NodeId) -> None:
        """Attach under *new_parent* with a fresh attachment epoch.

        A node cannot be both our parent and our child, so a copyset
        entry for the new parent is dropped: such an entry is a relic of
        a grant made before that node became the root (token
        regeneration adopts the old tree wholesale), and keeping it pins
        a mode nobody below us holds — the root then waits forever for a
        release that can never come (a parent↔child cycle).  The new
        parent's own accounting dominates; evict before ``owned_mode``
        is recomputed so the mode we announce upward excludes the ghost.
        """

        self._parent = new_parent
        self._attach_seq = self._mint_serial()
        self._children.pop(new_parent, None)
        self._child_seqs.pop(new_parent, None)
        self._provisional_children.discard(new_parent)

    # ------------------------------------------------------------------
    # Recovery hooks (driven by repro.faults.recovery.RecoveryManager;
    # all require ``ProtocolOptions.recovery``).
    # ------------------------------------------------------------------

    def _require_recovery(self) -> None:
        if not self._options.recovery:
            raise ProtocolError(
                "recovery hooks need ProtocolOptions(recovery=True)"
            )

    @recorded(node=INT)
    def evict_child(self, node: NodeId) -> List[Envelope]:
        """Forget a crashed child: drop its copyset entry and its requests.

        The dead subtree's holds are gone with it, so the owned mode may
        weaken — which can unblock the local queue (token node) or emit a
        release to the parent (Rule 5.2), exactly as if the child had
        released cleanly.
        """

        self._require_recovery()
        return self._drop_child(node)

    def _drop_child(self, node: NodeId) -> List[Envelope]:
        owned_before = self.owned_mode()
        self._children.pop(node, None)
        self._child_seqs.pop(node, None)
        self._provisional_children.discard(node)
        self._queue = [q for q in self._queue if q.origin != node]
        out = self._after_owned_maybe_changed(owned_before)
        out.extend(self._refresh_frozen())
        return out

    @recorded(new_parent=INT)
    def reattach(self, new_parent: NodeId) -> List[Envelope]:
        """Re-home an orphan under *new_parent* after its parent died.

        Announces the orphan's whole surviving subtree via a release (so
        the new parent's copyset dominates it), then re-forwards anything
        in flight: the node's own pending request and every foreign
        request it had queued (their grants may have died with the old
        parent).  Request duplication is safe — that is what recovery
        mode's dedup is for.

        The old parent always receives a NONE release under the old
        attachment seq: if it is genuinely dead the message is lost
        harmlessly, but if the suspicion was false (heartbeats lost to
        the fault plan) its copyset entry for this node would otherwise
        stay pinned forever — we release to the new parent from now on
        — and the root would wait behind that ghost mode indefinitely.
        """

        self._require_recovery()
        if self._has_token or new_parent == self._node_id:
            return []
        old_parent, old_seq = self._parent, self._attach_seq
        self._reparent(new_parent)
        out: List[Envelope] = []
        owned = self.owned_mode()
        if old_parent is not None and old_parent != new_parent:
            out.append(self._release_to(old_parent, LockMode.NONE, old_seq))
        if owned is not LockMode.NONE:
            out.append(self._release_to(new_parent, owned))
        if self._pending is not None:
            out.append(self._forward(self._pending))
        out.extend(self._forward_queue())
        return out

    @recorded(epoch=INT)
    def regenerate_token(self, epoch: int) -> List[Envelope]:
        """Become the token node under a fresh incarnation *epoch*, fenced.

        For a token that died with its holder, or that a departing holder
        hands over.  *epoch* must reach every epoch observed here, so a
        stale token still in flight is discarded on arrival (see
        :meth:`_handle_token`).  Nothing is granted (not even our own
        queued request) until :meth:`confirm_custody`: the copyset may
        still miss a survivor's hold (Rule 1).  A token held here already
        — one a restarted node was born with — is fenced where it is.
        """

        self._require_recovery()
        if epoch < self._token_epoch:
            raise ProtocolError(
                f"regeneration epoch {epoch} must reach the observed "
                f"floor {self._token_epoch}"
            )
        # Fence before the regeneration body runs its queue check.
        self._custody_pending = True
        self._token_epoch = epoch
        if self._has_token:
            return []
        self._has_token = True
        old_parent, old_seq = self._parent, self._attach_seq
        self._parent = None
        self._attach_seq = self._mint_serial()
        if self._pending is not None and not any(
            q.request_id == self._pending.request_id for q in self._queue
        ):
            self._enqueue(self._pending)
        self._report("regenerate")
        out: List[Envelope] = []
        if old_parent is not None:
            # Mirror ``reattach``'s old-parent notice: any owned mode we
            # announced under the old attachment dissolved the moment we
            # became root.  Without this a crossed pre-regeneration
            # announce leaves the old parent holding us as a child while
            # we hold it as ours — a parent↔child cycle that pins both
            # owned modes forever and wedges the new root's queue.
            out.append(self._release_to(old_parent, LockMode.NONE, old_seq))
        out.extend(self._check_queue())
        return out

    @recorded()
    def fence_holds(self) -> Tuple[List[Envelope], List[Tuple[LockMode, int]]]:
        """Self-fence: force-release every local hold, stop granting.

        Invoked by the recovery manager when this node has been unable
        to reach a quorum for a full lease duration: its leases are void
        and peers are about to revoke them, so the application's holds
        are released *here first* (the ordering that keeps revocation
        Rule-1 safe).  The pending request is abandoned and the local
        queue is cleared — queued foreign requests will be retransmitted
        by their origins and re-homed toward the majority.

        Returns ``(envelopes, released)`` where *released* lists the
        ``(mode, count)`` holds that were forcibly dropped, so the
        caller can report them to application-level monitors.
        """

        self._require_recovery()
        if self._lease_fenced:
            return [], []
        self._lease_fenced = True
        released = sorted(
            ((mode, count) for mode, count in self._held.items() if count > 0),
            key=lambda item: str(item[0]),
        )
        owned_before = self.owned_mode()
        for mode, count in released:
            self._held[mode] = 0
            for _ in range(count):
                self._report(RELEASED, mode=mode)
        self._pending = None
        self._ctx = None
        self._queue = []
        self._report("lease-fence")
        # Rule-1-safe release replayed up the hierarchy: the parent's
        # copyset weakens exactly as if the holds were released cleanly
        # (a fenced token node serves nothing from its queue).  Under a
        # partition the message may never arrive — the majority's lease
        # revocation covers that path.
        return self._after_owned_maybe_changed(owned_before), released

    @recorded()
    def retransmit_pending(self) -> List[Envelope]:
        """Re-send the node's own in-flight request, if any.

        Driven by the recovery manager at the events after which the
        request may have been lost.  A token-holding node's pending
        request is queued locally and needs no wire retry.
        """

        self._require_recovery()
        if self._pending is None or self._has_token or self._parent is None:
            return []
        pending = self._pending
        self._report(RETRANSMITTED, pending.request_id, pending.mode)
        return [self._forward(pending)]

    @recorded(epoch=INT, token_holder=OPT_NODE)
    def observe_epoch(
        self, epoch: int, token_holder: Optional[NodeId] = None
    ) -> List[Envelope]:
        """Learn that a token of incarnation *epoch* exists at *token_holder*.

        Raises this node's epoch floor.  If this node itself holds a
        *stale* token (a regeneration happened while its token copy was
        presumed lost), it demotes: relinquishes the token, re-attaches
        under the announced holder and re-forwards its queue — restoring
        the single-token invariant without losing any queued request.
        """

        self._require_recovery()
        if epoch <= self._token_epoch:
            return []
        demote = (
            self._has_token
            and token_holder is not None
            and token_holder != self._node_id
        )
        self._token_epoch = epoch
        if not demote:
            return []
        self._has_token = False
        self._reparent(token_holder)
        out: List[Envelope] = []
        owned = self.owned_mode()
        if owned is not LockMode.NONE:
            out.append(self._release_to(token_holder, owned))
        # Upgrades never leave their origin; a demoted U holder is
        # already a broken state the epoch floor is repairing.
        out.extend(self._forward_queue(lambda msg: msg.upgrade))
        return out

    # ------------------------------------------------------------------
    # Durability hooks (driven by repro.persist; rejoin reconciliation by
    # repro.faults.recovery.  All mutators require ``options.recovery``).
    # ------------------------------------------------------------------

    @property
    def custody_pending(self) -> bool:
        """True while restored, regenerated or handed-off token custody
        awaits the fencing handshake."""

        return self._custody_pending

    def birth(self) -> Dict[str, object]:
        return {"parent": self._parent, "token": self._has_token}

    @classmethod
    def from_birth(cls, node_id, lock_id, init, listener, clock, options=None):
        known = {f.name for f in dataclasses.fields(ProtocolOptions)}
        switches = {k: v for k, v in (options or {}).items() if k in known}
        return cls(
            node_id,
            lock_id,
            clock,
            parent=OPT_NODE.decode(init["parent"]),
            has_token=bool(init["token"]),
            listener=listener,
            options=ProtocolOptions(**switches),
        )

    def _rejoin_policy(self) -> None:
        """What :meth:`adopt_persisted` distrusts in a restored state.

        Restored children become *provisional* (see ``__init__``), the
        grant memory is void, token custody is unconfirmed — a restored
        token holder is fenced until :meth:`confirm_custody` (it may have
        been superseded by a regeneration while it was down) — and the
        serial counter is advanced past every restored epoch.  The
        pending-request context is gone with the old process, so the
        caller must follow up with :meth:`abandon_pending`.
        """

        self._custody_pending = self._has_token
        self._recent_grants.clear()
        self._provisional_children = set(self._children)
        floor = max(
            self._attach_seq, max(self._child_seqs.values(), default=0)
        )
        for msg in self._queue:
            floor = max(floor, msg.request_id.serial)
        if self._pending is not None:
            floor = max(floor, self._pending.request_id.serial)
        advance_serial_past(floor)

    @recorded()
    def confirm_custody(self) -> List[Envelope]:
        """Custody settled in our favour: resume granting."""

        self._require_recovery()
        if not self._custody_pending:
            return []
        self._custody_pending = False
        out = self._expire_provisional()
        out.extend(self._check_queue())
        out.extend(self._refresh_frozen())
        return out

    @recorded(epoch=INT, holder=INT)
    def fence_custody(self, epoch: int, holder: NodeId) -> List[Envelope]:
        """Custody lost: a token of *epoch* lives at *holder*; demote.

        The copyset is discarded wholesale (the new holder's fence lifts
        only once every member has re-homed under it), the owned mode is
        re-announced under the new parent, and queued foreign requests
        are re-forwarded.  Own-origin entries are dropped: a restored
        one's context died with the old process, and the caller re-sends
        a live pending request.
        """

        self._require_recovery()
        if not self._custody_pending:
            return []
        self._custody_pending = False
        self._token_epoch = max(self._token_epoch, int(epoch))
        self._has_token = False
        self._parent = holder
        self._attach_seq = self._mint_serial()
        self._children.clear()
        self._child_seqs.clear()
        self._provisional_children.clear()
        self._recent_grants.clear()
        out: List[Envelope] = []
        owned = self.owned_mode()
        if owned is not LockMode.NONE:
            out.append(self._release_to(holder, owned))
        node = self._node_id
        out.extend(self._forward_queue(lambda q: q.upgrade or q.origin == node))
        self._queue = []  # What was not forwarded is disowned.
        return out

    @recorded()
    def abandon_pending(self) -> List[Envelope]:
        """Disown the restored in-flight request (its waiter is gone).

        The application context that awaited the grant died with the old
        process, so serving the request would grant a mode nobody ever
        releases.  Foreign requests queued *behind* the abandoned one at a
        non-token node are re-forwarded — they were only parked here
        because of it (Rule 4.1).
        """

        self._require_recovery()
        had_pending = self._pending is not None
        self._pending = None
        self._ctx = None
        before = len(self._queue)
        self._queue = [q for q in self._queue if q.origin != self._node_id]
        dropped = before - len(self._queue)
        if not had_pending and not dropped:
            return []
        out: List[Envelope] = []
        if not self._has_token and self._parent is not None:
            out = self._forward_queue()
        return out

    @recorded()
    def reassert_owned(self) -> List[Envelope]:
        """Announce the current owned mode to the parent.

        Used in both directions of a durable restart: a restored child
        re-asserts its subtree to its parent, and live children of a
        restarted parent re-assert theirs so the parent's restored
        (provisional) copyset entries are re-confirmed or corrected.
        """

        self._require_recovery()
        if self._has_token or self._parent is None:
            return []
        return [self._release_to(self._parent, self.owned_mode())]

    @recorded()
    def expire_provisional_children(self) -> List[Envelope]:
        """Drop restored copyset entries never re-confirmed by the child.

        Provisional entries kept past the rejoin settle window belong to
        children that migrated (or released) while this node was down;
        keeping them would pin the owned mode forever.  Expiry mirrors
        :meth:`evict_child`: the owned mode may weaken, which can unblock
        the queue or emit a release upward.
        """

        self._require_recovery()
        return self._expire_provisional()

    @recorded()
    def begin_departure(self) -> List[Envelope]:
        """Enter graceful-departure mode (see :mod:`repro.membership`).

        From here on this automaton refuses new local requests, issues no
        copy grants and (if it holds the token) grants nothing from the
        queue — it becomes a pure forwarder while the membership layer
        hands off token custody and migrates its copyset children.
        Idempotent.
        """

        self._require_recovery()
        self._departing = True
        return []

    @recorded(node=INT, mode=MODE, seq=INT)
    def adopt_child(
        self, node: NodeId, mode: LockMode, seq: int = 0
    ) -> List[Envelope]:
        """Record *node* as a copyset child holding *mode* (migration).

        Used by graceful departure: before a departing parent points a
        child at us, it tells us to adopt the child's recorded owned mode
        under its current attachment epoch *seq*.  Recording the mode
        *before* the child detaches from the leaver means the child's
        subtree is always accounted for somewhere — the record here
        over-approximates until the child's own announce confirms it,
        which blocks conflicting grants but can never violate Rule 1.
        Merging is strengthen-only and idempotent, so re-sent migration
        messages are harmless; one older than the child's attachment
        here is ignored.
        """

        self._require_recovery()
        if (
            node == self._node_id
            or node == self._parent
            or mode is LockMode.NONE
            or seq < self._child_seqs.get(node, 0)
        ):
            return []
        owned_before = self.owned_mode()
        self._merge_child(node, mode, seq)
        out = self._after_owned_maybe_changed(owned_before)
        out.extend(self._refresh_frozen())
        return out

    def _merge_child(self, node: NodeId, mode: LockMode, seq: int) -> None:
        """Record *node* at *mode* or stronger, under epoch *seq* or newer."""

        known = self._children.get(node, LockMode.NONE)
        self._children[node] = max_mode((known, mode))
        if seq > self._child_seqs.get(node, 0):
            self._child_seqs[node] = seq

    # ------------------------------------------------------------------
    # God-view membership splices (see repro.sim.cluster).
    # ------------------------------------------------------------------
    #
    # The fault-free clusters support online join/leave by editing the
    # copyset tree directly at quiescence instead of running the
    # repro.faults handoff protocol.  These helpers are the sanctioned
    # mutators for that: they keep the derived bits (attachment epochs,
    # child seqs, provisional sets) consistent and — apart from the
    # Rule-5.2 release a weakened parent owes upward — never touch the
    # wire.  Callers must guarantee quiescence; none of these check it.

    @recorded(node=INT, mode=MODE, seq=INT)
    def splice_adopt_child(self, node: NodeId, mode: LockMode, seq: int) -> None:
        """Record a migrated child directly (strengthen-only merge)."""

        if node == self._node_id or mode is LockMode.NONE:
            return
        self._merge_child(node, mode, seq)

    @recorded(node=INT)
    def splice_drop_child(self, node: NodeId) -> List[Envelope]:
        """Forget a departed child; may owe a weakened release upward."""

        return self._drop_child(node)

    @recorded(new_parent=INT)
    def splice_parent(self, new_parent: NodeId) -> None:
        """Re-point the parent edge after the old parent was spliced out."""

        if self._has_token or new_parent == self._node_id:
            return
        self._reparent(new_parent)

    @recorded(frozen=optional(MODES))
    def splice_token(self, frozen: Optional[FrozenSet[LockMode]] = None) -> None:
        """Become the token root, inheriting the leaver's frozen set."""

        self._has_token = True
        self._parent = None
        self._attach_seq = self._mint_serial()
        self._custody_pending = False
        if frozen is not None:
            self._frozen = frozenset(frozen)

    @recorded(forwarder=INT)
    def splice_retire(self, forwarder: NodeId) -> None:
        """Terminal state of a spliced-out node: empty, pointing away.

        The ghost keeps a parent edge at *forwarder* so any stray message
        that still reaches it is forwarded instead of mis-handled; it
        claims no token, no children and no queue.
        """

        self._has_token = False
        self._children.clear()
        self._child_seqs.clear()
        self._provisional_children.clear()
        self._queue = []
        self._pending = None
        self._ctx = None
        if forwarder != self._node_id:
            self._parent = forwarder
            self._attach_seq = self._mint_serial()

    def _expire_provisional(self) -> List[Envelope]:
        stale = sorted(
            node for node in self._provisional_children if node in self._children
        )
        self._provisional_children.clear()
        if not stale:
            return []
        owned_before = self.owned_mode()
        for node in stale:
            self._children.pop(node, None)
            self._child_seqs.pop(node, None)
        out = self._after_owned_maybe_changed(owned_before)
        out.extend(self._refresh_frozen())
        return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<HierarchicalLockAutomaton node={self._node_id} "
            f"lock={self._lock_id!r} token={self._has_token} "
            f"owned={self.owned_mode()} held={self.held_modes} "
            f"pending={self.pending_mode} queue={len(self._queue)} "
            f"frozen={sorted(str(m) for m in self._frozen)}>"
        )
