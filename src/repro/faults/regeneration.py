"""Token regeneration: orphan → probe → announce → reparent → regenerate.

When a lock's parent is suspected (or excised from the view) the lock is
*orphaned*.  The highest-id surviving member coordinates: orphans report
to it until reparented, it probes every live peer for a surviving token
and, if one answers, announces the holder to the reporters.  If none
answers and a majority is visible it claims the next token epoch,
broadcasts the claim so stale-epoch tokens are discarded wherever they
resurface, and serves from the regenerated token only after a settle
window in which survivors reattach and re-assert their owned modes (see
docs/FAULTS.md for the safety argument and its limits).

The layer owns the orphan table, the coordinator's open probes and the
last announced token placement per lock (the *hints*).
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Iterable, List, Optional, Set, Tuple

from ..core.contract import handles
from ..core.messages import LockId, NodeId
from ..core.modes import LockMode
from .messages import OrphanReport, ReparentMessage, TokenAck, TokenProbe


@dataclasses.dataclass
class _Probe:
    """Coordinator state of one lock being probed."""

    #: Highest token epoch any reporter (or this node) has observed.
    epoch: int
    #: Who asked, i.e. who is told where the token turned out to be.
    reporters: Set[NodeId]


class Regeneration:
    """Orphan reporting, token probing and regeneration of one node
    (whose :class:`~repro.faults.recovery.RecoveryManager` is *kernel*)."""

    def __init__(self, kernel) -> None:
        self._kernel = kernel
        #: Locks whose parent is gone and that await a reparent:
        #: lock_id -> the suspect.
        self._orphans: Dict[LockId, NodeId] = {}
        #: Coordinator side: the open probe per lock.
        self._probes: Dict[LockId, _Probe] = {}
        #: Last announced token placement: lock_id -> (holder, epoch).
        #: Replayed to restarted peers so a resurrected stale token home
        #: demotes itself (see docs/FAULTS.md).
        self.hints: Dict[LockId, Tuple[NodeId, int]] = {}
        #: One ``{"lock", "epoch", "node"}`` per token regenerated here.
        self.regenerations: List[Dict[str, object]] = []

    # -- orphan side -------------------------------------------------------

    def _coordinator(self) -> NodeId:
        """The live node that coordinates regeneration: the highest id
        among surviving members (every survivor computes the same one,
        modulo detector disagreement — the protocol tolerates several
        coordinators, see docs/FAULTS.md)."""

        return max(self._kernel.live())

    def start_orphan(self, lock_id: LockId, suspect: NodeId) -> None:
        """*lock_id*'s parent *suspect* is gone: find the token a home."""

        if self._coordinator() == self._kernel.node_id:
            self._ensure_probe(lock_id, reporter=self._kernel.node_id)
            return
        self._orphans[lock_id] = suspect
        self._orphan_fire(lock_id)

    def rehome(self, lock_id: LockId, parent: NodeId) -> None:
        """:meth:`start_orphan`, unless the lock is already being re-homed."""

        hint = self.hints.get(lock_id)
        if (
            lock_id not in self._orphans
            and lock_id not in self._probes
            # A hint naming ourselves is our own regeneration claim
            # riding out its settle window; re-probing now would
            # supersede it with a fresh epoch every beat and the
            # token would never actually regenerate.
            and (hint is None or hint[0] != self._kernel.node_id)
        ):
            self.start_orphan(lock_id, parent)

    def _orphan_fire(self, lock_id: LockId) -> None:
        kernel = self._kernel
        coordinator = self._coordinator()
        if coordinator == kernel.node_id:
            # Everyone above us died; we are the coordinator now.
            self._close_orphan(lock_id)
            self._ensure_probe(lock_id, reporter=kernel.node_id)
            return
        report = OrphanReport(
            lock_id=lock_id,
            sender=kernel.node_id,
            suspect=self._orphans[lock_id],
            epoch=kernel.lockspace.automaton(lock_id).token_epoch,
        )
        kernel.resend_later(("orphan", lock_id), self._orphan_fire, lock_id)
        kernel.send(coordinator, report)

    def _close_orphan(self, lock_id: LockId) -> bool:
        """Stop reporting *lock_id* orphaned; whether it was."""

        self._kernel.timers.cancel(("orphan", lock_id))
        return self._orphans.pop(lock_id, None) is not None

    # -- coordinator side --------------------------------------------------

    def probe(self, lock_id: LockId) -> None:
        """Ask every live peer whether a token for *lock_id* lives there."""

        kernel = self._kernel
        kernel.broadcast(
            kernel.live_peers(),
            TokenProbe(lock_id=lock_id, sender=kernel.node_id),
        )

    def _ensure_probe(
        self, lock_id: LockId, reporter: NodeId, epoch: int = 0
    ) -> None:
        kernel = self._kernel
        automaton = kernel.lockspace.automaton(lock_id)
        if automaton.has_token:
            if automaton.custody_pending:
                # Restored custody is still being confirmed; announcing
                # ourselves now could spread a stale placement.  The
                # reporter keeps re-sending until the rejoin resolves and
                # broadcasts the settled placement.
                return
            # No mystery: the token is right here.  Tell the reporter.
            self.announce(
                lock_id, kernel.node_id, automaton.token_epoch, {reporter}
            )
            return
        probe = self._probes.get(lock_id)
        if probe is not None:
            probe.reporters.add(reporter)
            probe.epoch = max(probe.epoch, epoch)
            return
        self._probes[lock_id] = _Probe(
            max(epoch, automaton.token_epoch), {reporter}
        )
        self.probe(lock_id)
        self._arm_deadline(lock_id)

    def _arm_deadline(self, lock_id: LockId) -> None:
        self._kernel.timers.arm(
            ("probe", lock_id),
            self._kernel.config.probe_timeout,
            self._probe_deadline,
            lock_id,
        )

    def _close_probe(self, lock_id: LockId) -> Optional[_Probe]:
        """End the probe of *lock_id*, deadline included; the probe."""

        self._kernel.timers.cancel(("probe", lock_id))
        return self._probes.pop(lock_id, None)

    @handles(OrphanReport)
    def on_orphan_report(self, msg: OrphanReport) -> None:
        self._ensure_probe(msg.lock_id, reporter=msg.sender, epoch=msg.epoch)

    @handles(TokenProbe)
    def on_token_probe(self, msg: TokenProbe) -> None:
        kernel = self._kernel
        automaton = kernel.lockspace.automaton(msg.lock_id)
        if automaton.has_token:
            kernel.send(
                msg.sender,
                TokenAck(
                    lock_id=msg.lock_id,
                    sender=kernel.node_id,
                    epoch=automaton.token_epoch,
                ),
            )

    @handles(TokenAck)
    def on_token_ack(self, msg: TokenAck) -> None:
        if self._kernel.custody.observe(msg.lock_id, msg.sender, msg.epoch):
            return
        probe = self._close_probe(msg.lock_id)
        if probe is not None:
            self.announce(msg.lock_id, msg.sender, msg.epoch, probe.reporters)

    def _probe_deadline(self, lock_id: LockId) -> None:
        kernel = self._kernel
        automaton = kernel.lockspace.automaton(lock_id)
        if automaton.has_token:
            self.announce(
                lock_id,
                kernel.node_id,
                automaton.token_epoch,
                self._probes.pop(lock_id).reporters,
            )
            return
        if not kernel.has_quorum():
            # No quorum: we may be the minority side of a partition,
            # with a perfectly healthy token across the cut.
            # Regenerating here would fork the lock space, so keep
            # probing instead — liveness resumes when the fabric
            # heals (or enough members return).
            self.probe(lock_id)
            self._arm_deadline(lock_id)
            return
        # Nobody answered and a majority is visible: the token died
        # with the crash.  Claim the next epoch (the automaton's
        # floor may have moved past the probe's snapshot, so climb
        # above both) and broadcast the claim — survivors reattach
        # under us and re-assert their owned modes.  Only after the
        # settle window do we actually serve from the regenerated
        # token: granting from an empty copyset before the
        # re-assertions land could violate Rule 1.
        epoch = max(self._probes.pop(lock_id).epoch, automaton.token_epoch) + 1
        self.announce(lock_id, kernel.node_id, epoch)
        kernel.timers.arm(
            ("regen", lock_id),
            kernel.config.regen_settle,
            self._regen_fire,
            lock_id,
            epoch,
        )

    def _regen_fire(self, lock_id: LockId, epoch: int) -> None:
        kernel = self._kernel
        if self.hints.get(lock_id) != (kernel.node_id, epoch):
            return  # A higher claim (or a real token) won meanwhile.
        automaton = kernel.lockspace.automaton(lock_id)
        if automaton.has_token:
            return  # The token surfaced after all (e.g. adopted).
        horizon = kernel.leases.regen_horizon(lock_id)
        if horizon is not None:
            # A suspected holder still owns an unexpired lease on
            # this lock: regenerating now could grant over its hold.
            # Wait out the latest such lease (plus the revoke margin
            # already folded into the horizon) and try again.
            kernel.timers.arm(
                ("regen", lock_id),
                horizon - kernel.now() + 0.1,
                self._regen_fire,
                lock_id,
                epoch,
            )
            return
        out = automaton.regenerate_token(epoch)
        self.regenerations.append(
            {"lock": lock_id, "epoch": epoch, "node": kernel.node_id}
        )
        # Grants flowing from a regenerated token are annotated so
        # traces show which hops recovery manufactured.
        kernel.dispatch(out, "regen")
        # Re-broadcast: anyone who missed the claim (or joined the
        # quorum since) learns the final placement.
        self.announce(lock_id, kernel.node_id, epoch)

    # -- placements --------------------------------------------------------

    def announce(
        self,
        lock_id: LockId,
        holder: NodeId,
        epoch: int,
        reporters: Optional[Iterable[NodeId]] = None,
    ) -> None:
        """Tell *reporters* (by default — after a regeneration or a
        custody change — every live peer) where the token now lives."""

        kernel = self._kernel
        self.note_hint(lock_id, holder, epoch)
        message = ReparentMessage(
            lock_id=lock_id, sender=kernel.node_id, parent=holder, epoch=epoch
        )
        targets = kernel.live_peers() if reporters is None else sorted(reporters)
        kernel.broadcast([n for n in targets if n != kernel.node_id], message)
        # Apply locally too (the coordinator may itself be an orphan).
        self._apply_reparent(lock_id, holder, epoch)

    def tell(
        self, dest: NodeId, lock_id: LockId, holder: NodeId, epoch: int
    ) -> None:
        """Send *dest* alone one placement (from its own parent: the
        directive to attach under *holder* instead)."""

        self._kernel.send(
            dest,
            ReparentMessage(
                lock_id=lock_id,
                sender=self._kernel.node_id,
                parent=holder,
                epoch=epoch,
            ),
        )

    def note_hint(self, lock_id: LockId, holder: NodeId, epoch: int) -> None:
        """Record a token placement, keeping the most recent lineage.

        Ordered by ``(epoch, holder)`` so stale announcements replayed
        across a healed partition cannot roll a hint backwards.
        """

        known = self.hints.get(lock_id)
        if known is None or (epoch, holder) >= (known[1], known[0]):
            self.hints[lock_id] = (holder, epoch)

    def placements(self) -> Tuple[Tuple[LockId, NodeId, int], ...]:
        """Every hint as a ``(lock, holder, epoch)`` row, sorted."""

        return tuple(
            sorted(
                (lock_id, holder, epoch)
                for lock_id, (holder, epoch) in self.hints.items()
            )
        )

    def forget_holder(self, peer: NodeId) -> None:
        """Drop every hint naming *peer* (it was excised from the view)."""

        self.hints = {
            lock: hint for lock, hint in self.hints.items() if hint[0] != peer
        }

    def replay_hints(self, peer: NodeId) -> None:
        """Send *peer* every known placement.

        A restarted peer rejoins blank; a revived one may sit on the
        wrong side of a healed partition.  Replaying the placements makes
        a stale token copy over there (a resurrected token home, or a
        pre-partition root) demote itself immediately.
        """

        for lock_id, (holder, epoch) in self.hints.items():
            self.tell(peer, lock_id, holder, epoch)

    @handles(ReparentMessage)
    def on_reparent(self, msg: ReparentMessage) -> None:
        self.note_hint(msg.lock_id, msg.parent, msg.epoch)
        probe = self._probes.get(msg.lock_id)
        if probe is not None and msg.epoch >= probe.epoch:
            # Another coordinator resolved this lock while we probed.
            self._close_probe(msg.lock_id)
        self._apply_reparent(
            msg.lock_id, msg.parent, msg.epoch, sender=msg.sender
        )

    def _apply_reparent(
        self,
        lock_id: LockId,
        holder: NodeId,
        epoch: int,
        sender: Optional[NodeId] = None,
    ) -> None:
        kernel = self._kernel
        if kernel.custody.observe(lock_id, holder, epoch):
            return
        automaton = kernel.lockspace.automaton(lock_id)
        kernel.dispatch(automaton.observe_epoch(epoch, holder))
        needs_home = self._close_orphan(lock_id) or (
            automaton.parent is not None
            and (
                # A departed parent is as gone as a suspected one, but
                # gracefully removed peers never trip the failure
                # detector — without this, a node that coordinated its
                # own orphan probe (no orphan entry) would keep its
                # stale hint at the leaver forever.
                kernel.detector.is_suspected(automaton.parent)
                or automaton.parent in kernel.membership.departed
            )
        )
        if (
            not needs_home
            and sender is not None
            and sender == automaton.parent
            and holder != sender
        ):
            # A parent-directed reparent: our own (live) parent tells us
            # to attach elsewhere — the graceful-departure child
            # migration (see repro.membership).  Authoritative because
            # only the current parent may retract an attachment it
            # accounts for, and it recorded us at *holder* first.
            needs_home = True
        if needs_home and not automaton.has_token:
            kernel.dispatch(automaton.reattach(holder))
            if automaton.pending_mode is not LockMode.NONE:
                kernel.arm_retry(lock_id)
