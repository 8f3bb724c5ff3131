"""The membership layer of a node's recovery stack.

Owns the installed :class:`~repro.membership.view.MembershipView` and
the set of nodes views have excised, and drives everything that changes
them (docs/MEMBERSHIP.md): the two-phase quorum-gated view change, the
joiner's admission loop and the sponsor's state transfer, the graceful
leave (custody handoff, child migration, then a view without the
leaver), forced decommission, and the excision of a removed member from
every other layer's state — reached, like the channel and the detector,
through the :class:`repro.faults.recovery.RecoveryManager` composing it.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Iterable, List, Optional, Set, Tuple

from ..core.contract import handles
from ..core.messages import NodeId
from ..core.modes import LockMode
from .messages import (
    ChildMigrate,
    HandoffMessage,
    JoinRequest,
    StateTransfer,
    ViewAck,
    ViewInstall,
    ViewProposal,
)
from .view import MembershipView


@dataclasses.dataclass
class _Pending:
    """Proposer state of the view change in flight."""

    #: What is (re-)sent until installed or superseded.
    proposal: ViewProposal
    #: The view it was proposed against: who is asked, and whose
    #: majority decides.
    base: MembershipView
    acks: Set[NodeId]


class MembershipLayer:
    """View changes, join, leave and decommission of one node (whose
    ``RecoveryManager`` is *kernel*)."""

    def __init__(self, kernel, members: Iterable[NodeId]) -> None:
        self._kernel = kernel
        #: The installed view; epoch 0 is the bootstrap view (the
        #: construction-time member list).
        self.view = MembershipView(0, tuple(members))
        #: Nodes excised by an installed view — their stale traffic is
        #: dropped wholesale and they are never re-suspected.
        self.departed: Set[NodeId] = set()
        self._pending: Optional[_Pending] = None
        #: Highest ``(epoch, proposer)`` promised; later proposals win.
        self._promised: Tuple[int, int] = (0, -1)
        #: The last install, as re-sent for anti-entropy (``None`` until
        #: a view beyond the bootstrap one is installed).
        self._installed: Optional[ViewInstall] = None
        #: Who takes over this node's custody; set once it is leaving.
        self._successor: Optional[NodeId] = None
        #: Joiner side: the sponsor asked for admission, until admitted.
        self._sponsor: Optional[NodeId] = None
        #: ``(at, install)`` per view installed here (verdicts / tests).
        self.installs: List[Tuple[float, ViewInstall]] = []
        self.children_adopted = 0

    @property
    def departing(self) -> bool:
        """True while (and after) this node gracefully leaves the cluster."""

        return self._successor is not None

    # -- the installed view ------------------------------------------------

    def journal_payload(self) -> Optional[Dict[str, object]]:
        """The installed view as a journal payload (None at bootstrap)."""

        if self.view.epoch == 0:
            return None
        return dict(self.view.to_payload(), departed=sorted(self.departed))

    def adopt_view(self, payload: Dict[str, object]) -> None:
        """Adopt a journalled view (durable restart, before ``start``).

        Restarting into the *bootstrap* member list would resurrect
        departed nodes and mis-size every quorum; the WAL records each
        installed view so a restarted node rejoins the current one.
        """

        kernel = self._kernel
        with kernel.mutex:
            view = MembershipView.from_payload(payload)
            if view.epoch < self.view.epoch:
                return
            if not view.members:
                view = MembershipView(view.epoch, self.view.members)
            self.view = view
            self.departed = {int(n) for n in payload.get("departed", ())}
            if view.epoch:
                self._installed = kernel.control(
                    ViewInstall,
                    epoch=view.epoch,
                    members=view.members,
                    removed=tuple(sorted(self.departed)),
                )
            now = kernel.now()
            detector = kernel.detector
            tracked = set(detector.live_peers()) | detector.suspected
            for peer in view.members:
                if peer != kernel.node_id:
                    detector.add_peer(peer, now)
            for peer in tracked:
                if peer not in view.members:
                    detector.forget(peer)

    @handles(ViewInstall)
    def install(self, msg: ViewInstall) -> None:
        """Install *msg*'s view if its epoch beats the current one.

        Idempotent.  Effective joins/removals are computed against the
        *local* member list (not just the install's announced delta), so
        a node catching up across several missed views still excises
        everyone who left.
        """

        kernel = self._kernel
        if msg.epoch <= self.view.epoch:
            return
        old = set(self.view.members)
        view = self.view = MembershipView(msg.epoch, msg.members)
        joined = sorted((set(view.members) - old) | set(msg.joined))
        removed = sorted((old - set(view.members)) | set(msg.removed))
        self._installed = dataclasses.replace(
            msg,
            sender=kernel.node_id,
            members=view.members,
            joined=tuple(joined),
            removed=tuple(removed),
            trace=None,
        )
        now = kernel.now()
        self.installs.append((now, self._installed))
        pending = self._pending
        if pending is not None and pending.proposal.epoch <= msg.epoch:
            self._drop_pending()
        for peer in joined:
            if peer != kernel.node_id:
                self.departed.discard(peer)
                kernel.detector.add_peer(peer, now)
        for peer in removed:
            # Our own removal: the departure driver owns it.
            if peer != kernel.node_id:
                self._excise(peer, msg.forced)
        kernel.event("view-install", msg.epoch)
        if kernel.journal is not None:
            kernel.journal.record_view(self.journal_payload())

    def _excise(self, peer: NodeId, forced: bool) -> None:
        """Purge every trace of a removed member.

        For a graceful leaver this is a safety net (it drained before
        proposing its removal; at most a final in-flight release is
        made redundant here).  For a forced decommission it is the
        excision itself: fence out the dead node's leases, evict its
        copyset entries and re-home anything still attached under it
        through the ordinary orphan/regeneration flow.
        """

        kernel = self._kernel
        self.departed.add(peer)
        kernel.forget_peer(peer)
        kernel.leases.excise(peer, forced)
        kernel.regeneration.forget_holder(peer)
        for automaton in list(kernel.lockspace.automata()):
            kernel.dispatch(automaton.evict_child(peer))
            if automaton.parent == peer and not automaton.has_token:
                # Orphan → probe → announce for both flavours of removal.
                # For a forced decommission the dead node may have taken
                # the token with it, so the quorum-gated regeneration
                # flow settles custody (with the fence-floor bumps its
                # announce carries).  For a graceful leaver this only
                # re-homes a routing hint — but we deliberately do NOT
                # shortcut through the local token hint or an arbitrary
                # live member: ordinary custody transfers never
                # broadcast, so hints go stale fast under load, and two
                # excised orphans guessing at each other's position can
                # weave a mutual parent-hint cycle that deadlocks both
                # (each queues the other's request while requesting
                # through it).  The probe finds the live holder, whose
                # epoch-stamped announce is acyclic by construction.
                kernel.regeneration.start_orphan(automaton.lock_id, peer)

    def sweep_departed(self) -> None:
        """Evict any copyset/queue trace of a departed node (called from
        the heartbeat tick).

        View install already excises the departed everywhere, but a
        trace can be re-learned afterwards through an indirect path the
        departed-sender guard cannot see: a relayed request (live
        sender, departed origin) or the queue payload riding a custody
        ``TokenMessage``.  Granting such a request records the dead node
        as a child whose release can never come, wedging the queue
        behind it forever — so sweep once per beat; eviction replays the
        clean-release path and unblocks anything queued behind the
        ghost.

        The sweep also heals stale *parent* pointers at departed peers.
        View install rehomes the automata that exist at that moment, but
        an automaton instantiated later (a node's first request for a
        lock whose static token home has since left) starts with its
        configured default parent — a dead letterbox: the request would
        be sent into the void and strand forever.  Such parents go
        through the orphan probe, whose announce reattaches the node to
        the live holder and retries anything pending.
        """

        if not self.departed:
            return
        kernel = self._kernel
        for automaton in list(kernel.lockspace.automata()):
            stale = set(automaton.children) & self.departed
            stale.update(
                req.origin
                for req in automaton.queued_requests
                if req.origin in self.departed
            )
            for peer in sorted(stale):
                kernel.dispatch(automaton.evict_child(peer))
            if automaton.parent in self.departed and not automaton.has_token:
                kernel.regeneration.rehome(automaton.lock_id, automaton.parent)

    # -- the view change ---------------------------------------------------

    def propose(
        self,
        joined: Iterable[NodeId] = (),
        removed: Iterable[NodeId] = (),
        forced: bool = False,
    ) -> int:
        """Start a two-phase view change; returns the proposed epoch.

        Quorum is counted over the *current* (pre-change) view, mirroring
        the token-regeneration pattern: the proposer acks itself, collects
        :class:`ViewAck` from a majority of current members, then installs
        and broadcasts.  The proposal is re-sent on the orphan interval
        until installed or superseded by a higher-epoch install.
        """

        kernel = self._kernel
        with kernel.mutex:
            joined = tuple(sorted(set(joined)))
            removed = tuple(sorted(set(removed)))
            epoch = self.view.epoch
            if self._pending is not None:
                epoch = max(epoch, self._pending.proposal.epoch)
            epoch += 1
            pending = self._pending = _Pending(
                kernel.control(
                    ViewProposal,
                    epoch=epoch,
                    members=tuple(
                        sorted(
                            (set(self.view.members) | set(joined))
                            - set(removed)
                        )
                    ),
                    joined=joined,
                    removed=removed,
                    forced=forced,
                ),
                base=self.view,
                acks={kernel.node_id},
            )
            self._promised = max(self._promised, (epoch, kernel.node_id))
            kernel.event("view-propose", epoch)
            self._send_proposal()
            self._maybe_install()
            if self._pending is pending:
                kernel.resend_later("view-propose", self._propose_fire)
            return epoch

    def _send_proposal(self) -> None:
        pending = self._pending
        self._kernel.broadcast(
            [
                peer
                for peer in self._kernel.live_peers()
                if peer in pending.base.members and peer not in pending.acks
            ],
            pending.proposal,
        )

    def _propose_fire(self) -> None:
        self._send_proposal()
        self._kernel.resend_later("view-propose", self._propose_fire)

    def _drop_pending(self) -> None:
        self._pending = None
        self._kernel.timers.cancel("view-propose")

    def _maybe_install(self) -> None:
        kernel = self._kernel
        pending = self._pending
        if pending is None or len(pending.acks) < pending.base.quorum():
            return
        self._drop_pending()
        won = pending.proposal
        message = kernel.control(
            ViewInstall,
            epoch=won.epoch,
            members=won.members,
            joined=won.joined,
            removed=won.removed,
            forced=won.forced,
        )
        self.install(message)
        audience = set(pending.base.members) | set(won.members)
        kernel.broadcast(sorted(audience - {kernel.node_id}), message)
        for peer in won.joined:
            if peer != kernel.node_id:
                self._state_transfer(peer)

    @handles(ViewProposal)
    def on_view_proposal(self, msg: ViewProposal) -> None:
        if msg.epoch <= self.view.epoch:
            # Stale proposer (it missed an install): catch it up instead.
            self.catch_up(msg.sender)
            return
        if (msg.epoch, msg.sender) < self._promised:
            return
        self._promised = (msg.epoch, msg.sender)
        kernel = self._kernel
        kernel.send(msg.sender, kernel.control(ViewAck, epoch=msg.epoch))

    @handles(ViewAck)
    def on_view_ack(self, msg: ViewAck) -> None:
        pending = self._pending
        if pending is not None and msg.epoch == pending.proposal.epoch:
            pending.acks.add(msg.sender)
            self._maybe_install()

    def catch_up(self, dest: NodeId) -> None:
        """Re-send *dest* the installed view (and, to a member, the state
        that goes with it): it is running a stale one."""

        if self._installed is None or dest in self.departed:
            return
        self._kernel.send(dest, self._installed)
        if dest in self.view.members:
            self._state_transfer(dest)

    def _state_transfer(self, dest: NodeId) -> None:
        kernel = self._kernel
        hints = tuple(
            row
            for row in kernel.regeneration.placements()
            if row[1] not in self.departed
        )
        floors = tuple(
            sorted(
                (automaton.lock_id, automaton.fence_floor)
                for automaton in kernel.lockspace.automata()
                if automaton.fence_floor
            )
        )
        kernel.send(
            dest,
            kernel.control(
                StateTransfer,
                view_epoch=self.view.epoch,
                members=self.view.members,
                hints=hints,
                floors=floors,
            ),
        )

    @handles(StateTransfer)
    def on_state_transfer(self, msg: StateTransfer) -> None:
        self.install(
            self._kernel.control(
                ViewInstall, epoch=msg.view_epoch, members=msg.members
            )
        )
        for lock_id, holder, epoch in msg.hints:
            if holder not in self.departed:
                self._kernel.regeneration.note_hint(lock_id, holder, epoch)
        for lock_id, floor in msg.floors:
            self._kernel.lockspace.automaton(lock_id).raise_fence_floor(floor)

    # -- join --------------------------------------------------------------

    def request_join(self, sponsor: NodeId) -> None:
        """Joiner side: ask *sponsor* to admit us, re-sending until a view
        (which will include us) is installed here."""

        with self._kernel.mutex:
            if self._sponsor is None:
                self._sponsor = sponsor
                self._join_fire()

    def _join_fire(self) -> None:
        kernel = self._kernel
        if self._installed is not None:
            self._sponsor = None  # Admitted (any install counts).
            return
        kernel.send(self._sponsor, kernel.control(JoinRequest))
        kernel.resend_later("join", self._join_fire)

    @handles(JoinRequest)
    def on_join_request(self, msg: JoinRequest) -> None:
        joiner = msg.sender
        if joiner in self.view.members:
            # Already admitted; the install/state transfer may have been
            # lost on the wire — re-send both.
            self.catch_up(joiner)
            return
        pending = self._pending
        if pending is not None and joiner in pending.proposal.joined:
            return  # Admission already in flight.
        self.propose(joined=(joiner,))

    # -- graceful leave ----------------------------------------------------

    def begin_leave(self, successor: Optional[NodeId] = None) -> NodeId:
        """Start draining this node out of the cluster.

        Abandons its pending requests, force-releases any residual holds,
        then (driven by the leave tick) hands off token custody to
        *successor*, migrates its copyset children, and finally proposes
        a view without itself.  Returns the chosen successor.  The caller
        should keep the node's transport running until its :attr:`view`
        no longer lists it.
        """

        kernel = self._kernel
        with kernel.mutex:
            if self._successor is not None:
                return self._successor
            if successor is None:
                candidates = kernel.live_peers()
                if not candidates:
                    raise ValueError(
                        f"node {kernel.node_id} has no live successor to "
                        f"drain to"
                    )
                successor = min(candidates)
            self._successor = successor
            kernel.event("leave-begin", kernel.node_id)
            for automaton in list(kernel.lockspace.automata()):
                kernel.dispatch(automaton.begin_departure())
                kernel.dispatch(automaton.abandon_pending(), "replay")
                held = automaton.snapshot().held
                for mode_name, count in held:
                    mode = LockMode(str(mode_name))
                    for _ in range(int(count)):
                        kernel.dispatch(
                            kernel.lockspace.release(automaton.lock_id, mode)
                        )
                if held:
                    kernel.leases.forced_release(
                        kernel.node_id, automaton.lock_id
                    )
            kernel.leases.abandon()
            self._leave_tick()
            return successor

    def departure_complete(self) -> bool:
        """True when nothing is left to drain: no token custody, no
        copyset children, no holds, no pending request, empty queues."""

        with self._kernel.mutex:
            for automaton in list(self._kernel.lockspace.automata()):
                snap = automaton.snapshot()
                if (
                    snap.believes_token
                    or snap.children
                    or snap.held
                    or snap.pending is not None
                    or snap.queue
                ):
                    return False
            return True

    def _leave_tick(self) -> None:
        kernel = self._kernel
        if kernel.node_id not in self.view.members:
            # Our removal view is installed: departure complete.
            kernel.event("departed", kernel.node_id)
            return
        candidates = kernel.live_peers()
        if self._successor not in candidates and candidates:
            self._successor = min(candidates)
        for automaton in list(kernel.lockspace.automata()):
            lock_id = automaton.lock_id
            if automaton.has_token:
                # Custody first; children migrate only after the
                # successor's announce demotes us under it.
                kernel.send(
                    self._successor,
                    HandoffMessage(
                        lock_id=lock_id,
                        sender=kernel.node_id,
                        epoch=automaton.token_epoch,
                    ),
                )
                continue
            parent = automaton.parent
            if parent is None or parent in self.departed:
                continue
            for child, mode in sorted(automaton.children.items()):
                if child == parent or child in self.departed:
                    continue
                # Adopt-then-reparent, in that order: the new parent
                # records the child's mode before the child is told
                # to detach from us, so the subtree is accounted for
                # somewhere under every message ordering.
                kernel.send(
                    parent,
                    ChildMigrate(
                        lock_id=lock_id,
                        sender=kernel.node_id,
                        child=child,
                        mode=mode,
                        seq=automaton.child_attachment_seq(child),
                    ),
                )
                kernel.regeneration.tell(
                    child, lock_id, parent, automaton.token_epoch
                )
        if self.departure_complete() and self._pending is None:
            self.propose(removed=(kernel.node_id,))
        kernel.resend_later("leave", self._leave_tick)

    @handles(ChildMigrate)
    def on_child_migrate(self, msg: ChildMigrate) -> None:
        if msg.child in self.departed:
            return
        self._kernel.dispatch(
            self._kernel.lockspace.automaton(msg.lock_id).adopt_child(
                msg.child, msg.mode, msg.seq
            )
        )
        self.children_adopted += 1

    # -- decommission ------------------------------------------------------

    def decommission(self, node: NodeId) -> int:
        """Force-remove a (dead) *node* from the view; returns the epoch.

        Must be called on a live member.  The installed view fences the
        dead node's leases, evicts its copyset entries everywhere and
        routes any orphans through the ordinary regeneration flow.
        """

        kernel = self._kernel
        with kernel.mutex:
            if node == kernel.node_id:
                raise ValueError("a node cannot decommission itself")
            if node not in self.view.members:
                return self.view.epoch  # Already excised.
            kernel.event("decommission", node)
            return self.propose(removed=(node,), forced=True)
