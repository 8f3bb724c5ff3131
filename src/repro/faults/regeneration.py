"""Token regeneration: orphan → probe → announce → reparent → regenerate.

When a lock's parent is suspected (or excised from the view) the lock is
*orphaned*.  The highest-id surviving member coordinates: orphans report
to it until reparented, and it asks every member of the view, suspects
included, whether the token lives there; every member answers.  A
holder's answer is announced to the reporters.  Once the answers are in
(:meth:`~repro.faults.recovery.RecoveryManager.answers_in`: a majority
answered, every silent member is suspected) and none holds the token,
it claims the next token epoch, broadcasting the claim so stale-epoch
tokens are discarded wherever they resurface, and takes the token
*fenced*: it serves once every member has re-homed under it and
answered (:mod:`repro.faults.custody`; see docs/FAULTS.md for the
safety argument and its limits).  No timer decides either step.

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
    #: The parents they lost.  Where the token turns out to live, the
    #: coordinator's own lock re-homes too if its parent is one of them
    #: (it may not suspect that parent yet); and a later report of the
    #: same losses, while that holder is trusted, asks one more round
    #: before it claims.
    suspects: Set[NodeId]
    #: The members that answered this round without the token.
    answered: Set[NodeId] = dataclasses.field(default_factory=set)
    #: Which round of asking this is: an answer counts only in the round
    #: it answers.
    round: int = 0


class Regeneration:
    """Orphan reporting, token probing and regeneration of one node
    (whose :class:`~repro.faults.recovery.RecoveryManager` is *kernel*)."""

    def __init__(self, kernel) -> None:
        self._kernel = kernel
        #: Locks whose parent is gone and that await a reparent:
        #: lock_id -> (the suspect, the attachment to it that was lost).
        self._orphans: Dict[LockId, Tuple[NodeId, int]] = {}
        #: Coordinator side: the open probe per lock.
        self._probes: Dict[LockId, _Probe] = {}
        #: Coordinator side: the last probe a holder's answer closed per
        #: lock — the parents its reporters had lost, and the holder.
        #: Spent by the next probe that reaches a decision.
        self._settled: Dict[LockId, Tuple[Set[NodeId], NodeId]] = {}
        #: Last announced token placement: lock_id -> (holder, epoch).
        #: Replayed to restarted peers so a re-born token yields to the
        #: lineage at once (see docs/FAULTS.md).
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
            self.ensure_probe(lock_id, self._kernel.node_id, suspect=suspect)
            return
        automaton = self._kernel.lockspace.automaton(lock_id)
        self._orphans[lock_id] = (suspect, automaton.attachment_seq)
        self._orphan_fire(lock_id)

    def rehome(self, lock_id: LockId, parent: NodeId) -> None:
        """:meth:`start_orphan`, unless the lock is already being re-homed."""

        if lock_id not in self._orphans and lock_id not in self._probes:
            self.start_orphan(lock_id, parent)

    def _orphan_fire(self, lock_id: LockId) -> None:
        kernel = self._kernel
        suspect = self._orphans[lock_id][0]
        automaton = kernel.lockspace.automaton(lock_id)
        if not self._lost(lock_id, automaton):
            # Re-attached meanwhile (the token came by, say): not lost.
            self._close_orphan(lock_id)
            return
        coordinator = self._coordinator()
        if coordinator == kernel.node_id:
            # Everyone above us died; we are the coordinator now.
            self._close_orphan(lock_id)
            self.ensure_probe(lock_id, kernel.node_id, suspect=suspect)
            return
        report = OrphanReport(
            lock_id=lock_id,
            sender=kernel.node_id,
            suspect=suspect,
            epoch=automaton.token_epoch,
        )
        kernel.resend_later(("orphan", lock_id), self._orphan_fire, lock_id)
        kernel.send(coordinator, report)

    def _lost(self, lock_id: LockId, automaton) -> bool:
        """Whether *lock_id* is an orphan still attached where it lost
        its parent."""

        return self._orphans.get(lock_id) == (
            automaton.parent,
            automaton.attachment_seq,
        )

    def _close_orphan(self, lock_id: LockId) -> None:
        """Stop reporting *lock_id* orphaned."""

        self._kernel.timers.cancel(("orphan", lock_id))
        self._orphans.pop(lock_id, None)

    # -- coordinator side --------------------------------------------------

    def ensure_probe(
        self,
        lock_id: LockId,
        reporter: NodeId,
        epoch: int = 0,
        suspect: Optional[NodeId] = None,
    ) -> None:
        kernel = self._kernel
        automaton = kernel.lockspace.automaton(lock_id)
        if kernel.custody.holds(automaton):
            # No mystery: the token is right here.  Tell the reporter —
            # unless it is fenced: our custody probe re-homes the
            # reporter, and the placement is broadcast once it settles.
            if not automaton.custody_pending:
                self.announce(
                    lock_id, kernel.node_id, automaton.token_epoch, {reporter}
                )
            return
        suspects = set() if suspect is None else {suspect}
        probe = self._probes.get(lock_id)
        if probe is not None:
            probe.reporters.add(reporter)
            probe.suspects |= suspects
            probe.epoch = max(probe.epoch, epoch)
            return
        self._probes[lock_id] = _Probe(
            max(epoch, automaton.token_epoch), {reporter}, suspects
        )
        self._probe_fire(lock_id)

    def _probe_fire(self, lock_id: LockId) -> None:
        # Probes ride the raw fabric and may be lost: keep asking every
        # member still silent, suspects included (a suspect may be the
        # live holder, and only its answer says so).
        if self._decide(lock_id):
            return
        kernel, probe = self._kernel, self._probes[lock_id]
        kernel.broadcast(
            kernel.silent(probe.answered),
            TokenProbe(
                lock_id=lock_id, sender=kernel.node_id, round=probe.round
            ),
        )
        kernel.resend_later(("probe", lock_id), self._probe_fire, lock_id)

    def _decide(self, lock_id: LockId) -> bool:
        """Close *lock_id*'s probe if the token is here, or claim the next
        epoch once the answers are in; whether the probe closed."""

        kernel, probe = self._kernel, self._probes[lock_id]
        automaton = kernel.lockspace.automaton(lock_id)
        if kernel.custody.holds(automaton):
            self._close_probe(lock_id)
            self.announce(
                lock_id, kernel.node_id, automaton.token_epoch, probe.reporters
            )
            return True
        if not kernel.answers_in(probe.answered):
            # Short of a majority we may be the minority side of a
            # partition, with a healthy token across the cut; with a
            # member silent but trusted, that member may hold it.
            return False
        settled = self._settled.pop(lock_id, None)
        if (
            settled is not None
            and probe.suspects
            and probe.suspects <= settled[0]
            and not kernel.detector.is_suspected(settled[1])
        ):
            # Every loss reported here was answered before by a holder
            # still trusted: the token may be in flight between live
            # members.  Ask everyone once more, counting only answers
            # given after this round began; the entry is spent, so a
            # token that since died with a suspect is claimed then.
            probe.answered.clear()
            probe.round += 1
            return False
        # A majority answered without the token and the rest are
        # suspected: the token died with the crash.  Claim the next
        # epoch (above every floor reported or answered), fenced.
        self._close_probe(lock_id)
        epoch = max(probe.epoch, automaton.token_epoch) + 1
        kernel.custody.take(lock_id, epoch, "regen")
        return True

    def _close_probe(self, lock_id: LockId) -> None:
        """End the probe of *lock_id*, its re-send included."""

        self._kernel.timers.cancel(("probe", lock_id))
        self._probes.pop(lock_id, None)

    @handles(OrphanReport)
    def on_orphan_report(self, msg: OrphanReport) -> None:
        self.ensure_probe(msg.lock_id, msg.sender, msg.epoch, msg.suspect)

    @handles(TokenProbe)
    def on_token_probe(self, msg: TokenProbe) -> None:
        kernel = self._kernel
        automaton = kernel.lockspace.automaton(msg.lock_id)
        kernel.send(
            msg.sender,
            TokenAck(
                lock_id=msg.lock_id,
                sender=kernel.node_id,
                epoch=automaton.token_epoch,
                holds=kernel.custody.holds(automaton),
                round=msg.round,
            ),
        )

    @handles(TokenAck)
    def on_token_ack(self, msg: TokenAck) -> None:
        # A holder's answer goes to custody first: it may outrank a
        # token fenced here, and is then consumed.
        if msg.holds and self._kernel.custody.observe(
            msg.lock_id, msg.sender, msg.epoch
        ):
            return
        probe = self._probes.get(msg.lock_id)
        if probe is not None and msg.holds:
            self._close_probe(msg.lock_id)
            self._settled[msg.lock_id] = (probe.suspects, msg.sender)
            parent = self._kernel.lockspace.automaton(msg.lock_id).parent
            self.announce(
                msg.lock_id,
                msg.sender,
                msg.epoch,
                probe.reporters,
                rehome=parent in probe.suspects,
            )
        elif probe is not None:
            probe.epoch = max(probe.epoch, msg.epoch)
            if msg.round == probe.round:
                probe.answered.add(msg.sender)
                self._decide(msg.lock_id)

    # -- placements --------------------------------------------------------

    def announce(
        self,
        lock_id: LockId,
        holder: NodeId,
        epoch: int,
        reporters: Optional[Iterable[NodeId]] = None,
        rehome: bool = False,
    ) -> None:
        """Tell *reporters* (by default — after a regeneration or a
        custody change — every live peer) where the token now lives;
        with *rehome*, re-home this node's lock under it too."""

        kernel = self._kernel
        self.note_hint(lock_id, holder, epoch)
        message = ReparentMessage(
            lock_id=lock_id, sender=kernel.node_id, parent=holder, epoch=epoch
        )
        targets = kernel.live_peers() if reporters is None else sorted(reporters)
        kernel.broadcast([n for n in targets if n != kernel.node_id], message)
        # Apply locally too (the coordinator may itself be an orphan).
        self._apply_reparent(lock_id, holder, epoch, rehome=rehome)

    def tell(
        self,
        dest: NodeId,
        lock_id: LockId,
        holder: NodeId,
        epoch: int,
        migrate: bool = False,
    ) -> None:
        """Send *dest* alone one placement (with *migrate*, from its own
        departing parent: the directive to attach under *holder*
        instead)."""

        self._kernel.send(
            dest,
            ReparentMessage(
                lock_id=lock_id,
                sender=self._kernel.node_id,
                parent=holder,
                epoch=epoch,
                migrate=migrate,
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

        A revived peer may sit on the wrong side of a healed partition:
        the placements make a stale root over there demote itself
        immediately.  A restarted peer re-creates its home tokens fenced
        and would find the lineage by its own probe; a placement it
        holds already lets it yield at once, before any probe.
        """

        for lock_id, (holder, epoch) in self.hints.items():
            self.tell(peer, lock_id, holder, epoch)

    @handles(ReparentMessage)
    def on_reparent(self, msg: ReparentMessage) -> None:
        self.learn(msg.lock_id, msg.parent, msg.epoch)
        self._apply_reparent(
            msg.lock_id,
            msg.parent,
            msg.epoch,
            sender=msg.sender if msg.migrate else None,
        )

    def learn(self, lock_id: LockId, holder: NodeId, epoch: int) -> None:
        self.note_hint(lock_id, holder, epoch)
        probe = self._probes.get(lock_id)
        if probe is not None and epoch >= probe.epoch:
            # Another coordinator resolved this lock while we probed.
            self._close_probe(lock_id)

    def follow(
        self, lock_id: LockId, holder: NodeId, epoch: int
    ) -> Tuple[NodeId, int]:
        """*holder* claims *lock_id* at *epoch*: unless a placement above
        it is known here, re-home under it (our parent, suspected or not,
        may be the dead root) re-asserting the owned mode.  Returns the
        best placement known."""

        self.learn(lock_id, holder, epoch)
        best = self.hints[lock_id]
        if best == (holder, epoch):
            self._apply_reparent(lock_id, holder, epoch, rehome=True)
        automaton = self._kernel.lockspace.automaton(lock_id)
        if automaton.has_token:  # Ours still: it outranks the claim.
            return self._kernel.node_id, automaton.token_epoch
        return best

    def _apply_reparent(
        self,
        lock_id: LockId,
        holder: NodeId,
        epoch: int,
        sender: Optional[NodeId] = None,
        rehome: bool = False,
    ) -> None:
        kernel = self._kernel
        # Created first: a lock born here may be born fenced.
        automaton = kernel.lockspace.automaton(lock_id)
        if kernel.custody.observe(lock_id, holder, epoch):
            return
        # An orphan re-attached since it lost its parent (the token came
        # by, say) is lost no more: the placement may predate that.
        lost = self._lost(lock_id, automaton)
        self._close_orphan(lock_id)
        kernel.dispatch(automaton.observe_epoch(epoch, holder))
        needs_home = lost or rehome or (
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
            # A migration directive from our own (live) parent, which
            # is departing: attach elsewhere (see repro.membership).
            # Authoritative because only the current parent may retract
            # an attachment it accounts for, and it recorded us at
            # *holder* first.  (A placement from whoever became our
            # parent after sending it is not one.)
            needs_home = True
        if needs_home and not automaton.has_token:
            kernel.dispatch(automaton.reattach(holder))
            if sender is not None and automaton.owned_mode() is LockMode.NONE:
                # *holder* adopted us at the mode our old parent had on
                # record, which a release still in flight to it may have
                # ended: say that we own nothing (``reattach`` announces
                # only a mode owned).
                kernel.dispatch(automaton.reassert_owned())
            if automaton.pending_mode is not LockMode.NONE:
                kernel.arm_retry(lock_id)
