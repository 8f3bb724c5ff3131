"""Token recovery: one record per lock — an orphan, a probe or a fence.

The paper's token node never fails; this layer keeps Rule 1 when one
does.  A lock whose parent is suspected (or excised from the view) is an
*orphan*: it reports to the coordinator, the highest-id surviving
member, until reparented.  The coordinator *probes* every member of the
view, suspects included; a holder's answer is announced to the
reporters.  Once the answers are in (a majority answered, every silent
member is suspected) and none holds the token, it claims the next epoch,
broadcast so that stale tokens are discarded wherever they resurface,
and holds the token *fenced* — queueing, not granting — until every
member it does not suspect has re-homed under it and answered (a token
handed off by a departing holder or restored from the journal is fenced
the same way).  A token *re-born* on a restarted home is no claim yet:
its lock probes like a coordinator while its automaton holds the token
fenced.  One loop asks for every record, re-sending each
``orphan_interval``, and no timer decides any step (docs/FAULTS.md §2
has the safety argument and its limits).
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, Iterable, List, Optional, Set, Tuple, Union

from ..core.contract import handles
from ..core.messages import LockId, NodeId
from ..core.modes import LockMode
from ..membership.messages import HandoffMessage
from .messages import (
    CustodyAnswer,
    CustodyProbe,
    OrphanReport,
    ReparentMessage,
    TokenAck,
    TokenProbe,
)


@dataclasses.dataclass
class _Orphan:
    """A lock whose parent is gone, reporting to the coordinator."""

    #: The suspect, and the attachment to it that was lost.
    suspect: NodeId
    attachment: int


@dataclasses.dataclass
class _Probe:
    """Asking the view who holds the token: as the coordinator, or as
    the home of a re-born token, which its automaton holds fenced."""

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


@dataclasses.dataclass
class _Fence:
    """Holding a claimed, handed-off or restored token until the answers
    are in."""

    epoch: int
    note: str  # Of its grants in traces: "regen" if regenerated.
    #: The members that answered, re-homed under this node.
    answered: Set[NodeId] = dataclasses.field(default_factory=set)


class TokenLayer:
    """The token records, placement hints and durable rejoin of one node
    (whose :class:`~repro.faults.recovery.RecoveryManager` is *kernel*)."""

    def __init__(self, kernel) -> None:
        self._kernel = kernel
        #: What this node is doing about each lock's token.
        self._records: Dict[LockId, Union[_Orphan, _Probe, _Fence]] = {}
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
        #: Report of the last :meth:`rejoin_from_journal` (``{}``: none).
        self.report: Dict[str, object] = {}

    def pending(self) -> List[LockId]:
        """Locks whose token is held fenced here, sorted."""

        return sorted(
            lock_id
            for lock_id, record in self._records.items()
            if self._fenced_epoch(lock_id, record) is not None
        )

    def _fenced_epoch(self, lock_id: LockId, record) -> Optional[int]:
        """The epoch of the token *record* holds fenced: a fence's, or a
        re-born one's (a probe whose automaton holds the token fenced)."""

        if isinstance(record, _Fence):
            return record.epoch
        if isinstance(record, _Probe):
            automaton = self._kernel.lockspace.automaton(lock_id)
            if automaton.has_token and automaton.custody_pending:
                return automaton.token_epoch
        return None

    def _holds(self, automaton) -> bool:
        """Whether *automaton*'s token is here: a re-born one is not
        until it is claimed."""

        return automaton.has_token and not (
            automaton.custody_pending
            and isinstance(self._records.get(automaton.lock_id), _Probe)
        )

    def _close(self, lock_id: LockId) -> None:
        """Drop *lock_id*'s record and its re-send."""

        self._kernel.timers.cancel(("probe", lock_id))
        self._records.pop(lock_id, None)

    # -- durable rejoin ----------------------------------------------------

    def rejoin_from_journal(
        self,
        state: Dict[LockId, Dict[str, object]],
        reclaim: Optional[Callable[[LockId, LockMode], bool]] = None,
    ) -> Dict[str, object]:
        """Adopt recovered journal *state* and reconcile with the cluster.

        *state* is the output of
        :func:`repro.persist.journal.recover_node_state`: one persisted
        payload per lock, recovered from snapshot + WAL replay.  Per lock:

        * the automaton adopts the payload under this boot, and
          re-encoding it must reproduce the payload (fields the rejoin
          policy resets excepted); a record that does not round-trip or
          cannot be decoded counts as a ``snapshot_mismatches`` entry,
          and an undecodable one leaves its lock to rejoin blank (a
          token it is born with is re-born: :meth:`born`);
        * a restored **token holder** is fenced: it queues instead of
          granting until its answers are in, and is demoted for good
          when a placement above its own surfaces elsewhere;
        * the pre-crash pending request is disowned (its waiter died with
          the old process) and restored holds are released — unless
          ``reclaim(lock, mode)`` claims one for the restarted
          application;
        * a non-token node re-asserts its owned mode to its parent, and
          its restored (provisional) copyset entries expire after the
          settle window unless children re-confirm them.

        Returns a JSON-safe report of what was restored.
        """

        kernel = self._kernel
        report: Dict[str, object] = {
            "locks_restored": 0,
            "holds_released": 0,
            "holds_reclaimed": 0,
            "custody": [],
            "reasserted": 0,
            "snapshot_mismatches": 0,
            "reclaim_partial_fanout": 0,
        }
        with kernel.mutex:
            for lock_id, payload in sorted(state.items()):
                automaton = kernel.lockspace.automaton(lock_id)
                try:
                    automaton.adopt_persisted(payload)
                    adopted = True
                except ValueError:
                    adopted = False  # Undecodable: this lock rejoins blank.
                if not adopted or any(
                    value != payload.get(key)
                    for key, value in automaton.persisted_state().items()
                    if key not in automaton.REJOIN_RESETS
                ):
                    report["snapshot_mismatches"] += 1
                    kernel.event("persist-mismatch", kernel.node_id)
                if not adopted:
                    self.born(automaton)
                    continue
                report["locks_restored"] += 1
                if automaton.has_token:  # Fenced by the rejoin policy.
                    report["custody"].append(lock_id)
                    epoch = automaton.token_epoch
                    self._records[lock_id] = _Fence(epoch, "replay")
                    self._ask(lock_id)
                kernel.dispatch(automaton.abandon_pending(), "replay")
                for mode, count in sorted(
                    automaton.held_modes.items(), key=lambda hold: str(hold[0])
                ):
                    for _ in range(count):
                        if reclaim is not None and reclaim(lock_id, mode):
                            report["holds_reclaimed"] += 1
                            if self._partial_fanout(lock_id):
                                report["reclaim_partial_fanout"] += 1
                            continue
                        kernel.dispatch(
                            kernel.lockspace.release(lock_id, mode), "replay"
                        )
                        report["holds_released"] += 1
                if not automaton.has_token:
                    out = automaton.reassert_owned()
                    report["reasserted"] += len(out)
                    kernel.dispatch(out, "replay")
                    kernel.timers.arm(
                        ("provisional", lock_id),
                        kernel.config.rejoin_settle,
                        self._provisional_expiry,
                        lock_id,
                    )
            self.report = report
            if report["locks_restored"]:
                kernel.event("rejoin", kernel.node_id)
        return report

    def _partial_fanout(self, lock_id: LockId) -> bool:
        """Whether a reclaimed hold's pre-crash advertisement was partial.

        Reclaim safety rests on the hold's lease having been advertised
        by broadcast heartbeat, so that peers pinned the copyset entry
        while this node was down (PROTOCOL.md §14).  The session journal
        records how many live peers each advertisement actually reached;
        if that fan-out never covered a quorum of the current view, the
        pinning assumption is unproven — surface it as a fault event
        instead of reclaiming silently.
        """

        kernel = self._kernel
        fanout = kernel.leases.sessions.advert_fanout(lock_id)
        if fanout is None:
            return False  # Pre-fanout journal payload: nothing recorded.
        # The advertiser itself counts.
        if fanout + 1 >= kernel.membership.view.quorum():
            return False
        kernel.event("reclaim-partial-fanout", kernel.node_id)
        return True

    def _provisional_expiry(self, lock_id: LockId) -> None:
        """Expire the restored copyset entries no child re-confirmed
        (unless the lock took a token fenced since: its answers do)."""

        automaton = self._kernel.lockspace.automaton(lock_id)
        if not automaton.custody_pending:
            self._kernel.dispatch(
                automaton.expire_provisional_children(), "replay"
            )

    # -- orphans -----------------------------------------------------------

    def _coordinator(self) -> NodeId:
        """The live node that coordinates regeneration: the highest id
        among surviving members (every survivor computes the same one,
        modulo detector disagreement — the protocol tolerates several
        coordinators, see docs/FAULTS.md)."""

        return max(self._kernel.live())

    def start_orphan(self, lock_id: LockId, suspect: NodeId) -> None:
        """*lock_id*'s parent *suspect* is gone: find the token a home
        (a lock probed here already is re-homed by its probe)."""

        node = self._kernel.node_id
        if self._coordinator() == node or isinstance(
            self._records.get(lock_id), _Probe
        ):
            self._ensure_probe(lock_id, node, suspect=suspect)
            return
        automaton = self._kernel.lockspace.automaton(lock_id)
        self._records[lock_id] = _Orphan(suspect, automaton.attachment_seq)
        self._ask(lock_id)

    def rehome(self, lock_id: LockId, parent: NodeId) -> None:
        """:meth:`start_orphan`, unless the lock is already being re-homed."""

        if lock_id not in self._records:
            self.start_orphan(lock_id, parent)

    def _lost(self, lock_id: LockId, automaton) -> bool:
        """Whether *lock_id* is an orphan still attached where it lost
        its parent."""

        record = self._records.get(lock_id)
        return isinstance(record, _Orphan) and (
            record.suspect,
            record.attachment,
        ) == (automaton.parent, automaton.attachment_seq)

    @handles(OrphanReport)
    def on_orphan_report(self, msg: OrphanReport) -> None:
        self._ensure_probe(msg.lock_id, msg.sender, msg.epoch, msg.suspect)

    # -- probes and fences: one question loop ------------------------------

    def _ensure_probe(
        self,
        lock_id: LockId,
        reporter: NodeId,
        epoch: int = 0,
        suspect: Optional[NodeId] = None,
    ) -> None:
        kernel = self._kernel
        automaton = kernel.lockspace.automaton(lock_id)
        if self._holds(automaton):
            # No mystery: the token is right here.  Tell the reporter —
            # unless it is fenced: our fence's question re-homes the
            # reporter, and the placement is broadcast once it settles.
            if not automaton.custody_pending:
                self._announce(
                    lock_id, kernel.node_id, automaton.token_epoch, {reporter}
                )
            return
        suspects = set() if suspect is None else {suspect}
        probe = self._records.get(lock_id)
        if isinstance(probe, _Probe):
            probe.reporters.add(reporter)
            probe.suspects |= suspects
            probe.epoch = max(probe.epoch, epoch)
            return
        self._records[lock_id] = _Probe(
            max(epoch, automaton.token_epoch), {reporter}, suspects
        )
        self._ask(lock_id)

    def _silent(self, answered: Set[NodeId]) -> List[NodeId]:
        """The view's members, this node aside, not in *answered*."""

        kernel = self._kernel
        members, node = kernel.membership.view.members, kernel.node_id
        return [n for n in members if n != node and n not in answered]

    def _answers_in(self, answered: Set[NodeId]) -> bool:
        """Whether the answers are in: the members that *answered*, plus
        this node, are a majority of the installed view, and every
        member still silent is suspected."""

        view, silent = self._kernel.membership.view, self._silent(answered)
        return len(view.members) - len(silent) >= view.quorum() and all(
            map(self._kernel.detector.is_suspected, silent)
        )

    def _ask(self, lock_id: LockId) -> None:
        """Ask about *lock_id* until it is decided: questions ride the
        raw fabric and may be lost.  A probe asks suspects too (one may
        be the live holder, and only its answer says so)."""

        if self._decide(lock_id):
            return
        kernel, record = self._kernel, self._records[lock_id]
        node, suspected = kernel.node_id, kernel.detector.is_suspected
        if isinstance(record, _Orphan):
            dests = [self._coordinator()]
            question = OrphanReport(
                lock_id=lock_id,
                sender=node,
                suspect=record.suspect,
                epoch=kernel.lockspace.automaton(lock_id).token_epoch,
            )
        elif isinstance(record, _Fence):
            silent = self._silent(record.answered)
            dests = [n for n in silent if not suspected(n)]
            question = CustodyProbe(
                lock_id=lock_id, sender=node, epoch=record.epoch
            )
        else:
            dests = self._silent(record.answered)
            question = TokenProbe(
                lock_id=lock_id, sender=node, round=record.round
            )
        kernel.broadcast(dests, question)
        kernel.resend_later(("probe", lock_id), self._ask, lock_id)

    def _decide(self, lock_id: LockId) -> bool:
        """Close *lock_id*'s record if its question is decided; whether
        it closed.  An orphan re-attached meanwhile (the token came by,
        say) is lost no more."""

        kernel, record = self._kernel, self._records[lock_id]
        if isinstance(record, _Orphan):
            lost = self._lost(lock_id, kernel.lockspace.automaton(lock_id))
            if lost and self._coordinator() != kernel.node_id:
                return False
            self._close(lock_id)
            if lost:  # Everyone above us died; we coordinate now.
                self._ensure_probe(
                    lock_id, kernel.node_id, suspect=record.suspect
                )
            return True
        if isinstance(record, _Fence):
            if not self._answers_in(record.answered) or (
                self._silent(record.answered)
                and kernel.leases.suspect_leased(lock_id)
            ):
                return False
            self._resolve(lock_id, confirmed=True)
            return True
        automaton = kernel.lockspace.automaton(lock_id)
        if self._holds(automaton):
            self._close(lock_id)
            self._announce(
                lock_id, kernel.node_id, automaton.token_epoch, record.reporters
            )
            return True
        if not self._answers_in(record.answered):
            # Short of a majority we may be the minority side of a
            # partition, with a healthy token across the cut; with a
            # member silent but trusted, that member may hold it.
            return False
        settled = self._settled.pop(lock_id, None)
        if (
            settled is not None
            and record.suspects
            and record.suspects <= settled[0]
            and not kernel.detector.is_suspected(settled[1])
        ):
            # Every loss reported here was answered before by a holder
            # still trusted: the token may be in flight between live
            # members.  Ask everyone once more, counting only answers
            # given after this round began; the entry is spent, so a
            # token that since died with a suspect is claimed then.
            record.answered.clear()
            record.round += 1
            return False
        # A majority answered without the token and the rest are
        # suspected: the token died with the crash.  Claim the next
        # epoch (above every floor reported or answered), fenced.
        self._close(lock_id)
        epoch = max(record.epoch, automaton.token_epoch) + 1
        self.take(lock_id, epoch, "regen")
        return True

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
                holds=self._holds(automaton),
                round=msg.round,
            ),
        )

    @handles(TokenAck)
    def on_token_ack(self, msg: TokenAck) -> None:
        # A holder's answer goes to the fence first: it may outrank a
        # token fenced here, and is then consumed.
        if msg.holds and self._observe(msg.lock_id, msg.sender, msg.epoch):
            return
        probe = self._records.get(msg.lock_id)
        if not isinstance(probe, _Probe):
            return
        if msg.holds:
            self._close(msg.lock_id)
            self._settled[msg.lock_id] = (probe.suspects, msg.sender)
            parent = self._kernel.lockspace.automaton(msg.lock_id).parent
            self._announce(
                msg.lock_id,
                msg.sender,
                msg.epoch,
                probe.reporters,
                rehome=parent in probe.suspects,
            )
        else:
            probe.epoch = max(probe.epoch, msg.epoch)
            if msg.round == probe.round:
                probe.answered.add(msg.sender)
                self._decide(msg.lock_id)

    def take(self, lock_id: LockId, epoch: int, note: str) -> None:
        """Take *lock_id*'s token fenced at *epoch* — regenerated (*note*
        ``"regen"``) or handed off (``"replay"``) — and claim it."""

        kernel = self._kernel
        automaton = kernel.lockspace.automaton(lock_id)
        kernel.dispatch(automaton.regenerate_token(epoch), note)
        self._records[lock_id] = _Fence(epoch, note)
        self._ask(lock_id)
        self._announce(lock_id, kernel.node_id, epoch)
        kernel.unpark()

    def born(self, automaton) -> None:
        """A restarted node created *automaton*: a token it was born with
        (its static home is here) is re-born, and held fenced.

        The lineage may have moved on while this node was down — to a
        live holder, or in flight between two — so a re-born token is no
        claim yet: it yields to any placement of its epoch or above (a
        hint known here already, an answer, a later announcement), and
        its lock probes for the token as a coordinator does, claiming
        the next epoch (:meth:`take`) once the answers are in and none
        holds it (docs/FAULTS.md §2)."""

        if not automaton.has_token:
            return
        kernel, lock_id = self._kernel, automaton.lock_id
        with kernel.mutex:
            epoch = automaton.token_epoch
            kernel.dispatch(automaton.regenerate_token(epoch))
            self._records[lock_id] = _Probe(epoch, {kernel.node_id}, set())
            hint = self.hints.get(lock_id)
            if hint is not None:
                self._observe(lock_id, *hint)
            if lock_id in self._records:
                self._ask(lock_id)

    def _observe(
        self,
        lock_id: LockId,
        holder: NodeId,
        epoch: int,
        serving: bool = False,
    ) -> bool:
        """A placement of *lock_id* surfaced; False unless a token is
        fenced here.

        Otherwise it is consumed (the caller must not act on it) and one
        above the fenced token demotes it at once: claims rank by
        ``(epoch, holder)``, a *serving* token above every claim of its
        epoch (transfers keep the epoch), and a re-born token, no claim
        yet, yields to any placement of its epoch or above."""

        record, node = self._records.get(lock_id), self._kernel.node_id
        fenced = self._fenced_epoch(lock_id, record)
        if fenced is None:
            return False
        claim = (epoch, holder) > (fenced, node)
        if holder != node and (
            epoch >= fenced if serving or isinstance(record, _Probe) else claim
        ):
            self._resolve(lock_id, confirmed=False, epoch=epoch, holder=holder)
        return True

    @handles(CustodyAnswer)
    def on_answer(self, msg: CustodyAnswer) -> None:
        if not self._observe(msg.lock_id, msg.parent, msg.epoch, msg.serving):
            return
        fence, node = self._records.get(msg.lock_id), self._kernel.node_id
        if isinstance(fence, _Fence) and (msg.parent, msg.epoch) == (
            node,
            fence.epoch,
        ):
            fence.answered.add(msg.sender)
            self._decide(msg.lock_id)

    def _resolve(
        self,
        lock_id: LockId,
        confirmed: bool,
        epoch: int = 0,
        holder: Optional[NodeId] = None,
    ) -> None:
        """Serve the token fenced here, or demote it under *holder*: a
        re-born token's probe outlives it unless the placement settles it."""

        kernel, record = self._kernel, self._records[lock_id]
        note = "replay"
        if isinstance(record, _Fence):
            note = record.note
            self._close(lock_id)
        automaton = kernel.lockspace.automaton(lock_id)
        if confirmed:
            kernel.event("custody-confirmed", kernel.node_id)
            kernel.dispatch(automaton.confirm_custody(), note)
            if note == "regen":
                self.regenerations.append(
                    {"lock": lock_id, "epoch": record.epoch,
                     "node": kernel.node_id}
                )
            # Broadcast the settled placement so survivors re-home and
            # any stale claim stands down.
            self._announce(lock_id, kernel.node_id, automaton.token_epoch)
        else:
            kernel.event("custody-fenced", kernel.node_id)
            kernel.dispatch(automaton.fence_custody(epoch, holder), note)
            self._learn(lock_id, holder, epoch)
            if automaton.pending_mode is not LockMode.NONE:
                # A request issued during the fence window was queued
                # locally; re-route it under the new parent.
                kernel.dispatch(automaton.retransmit_pending(), note)
        kernel.unpark()

    @handles(CustodyProbe)
    def on_custody_probe(self, msg: CustodyProbe) -> None:
        """The member side of a fence: unless a placement above the
        claim is known here, re-home under it (our parent, suspected or
        not, may be the dead root) re-asserting the owned mode; then
        answer with the best placement known, on the session stream."""

        kernel, lock_id = self._kernel, msg.lock_id
        self._learn(lock_id, msg.sender, msg.epoch)
        holder, epoch = self.hints[lock_id]
        if (holder, epoch) == (msg.sender, msg.epoch):
            self._apply_reparent(lock_id, holder, epoch, rehome=True)
        automaton = kernel.lockspace.automaton(lock_id)
        if automaton.has_token:  # Ours still: it outranks the claim.
            holder, epoch = kernel.node_id, automaton.token_epoch
        kernel.channel.send(
            msg.sender,
            CustodyAnswer(
                lock_id=lock_id,
                sender=kernel.node_id,
                parent=holder,
                epoch=epoch,
                serving=automaton.has_token and not automaton.custody_pending,
            ),
        )

    @handles(HandoffMessage)
    def on_handoff(self, msg: HandoffMessage) -> None:
        kernel = self._kernel
        automaton = kernel.lockspace.automaton(msg.lock_id)
        # Leaving ourselves, we cannot take custody; a re-sent offer finds
        # the token here (the leaver answered our fence once demoted).
        if kernel.membership.departing or self._holds(automaton):
            return
        kernel.event("handoff-accept", msg.sender)
        # The claim demotes the leaver; the answers rebuild the copyset.
        epoch = max(msg.epoch, automaton.token_epoch) + 1
        self.take(msg.lock_id, epoch, "replay")

    # -- placements --------------------------------------------------------

    def _announce(
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
        self._learn(msg.lock_id, msg.parent, msg.epoch)
        self._apply_reparent(
            msg.lock_id,
            msg.parent,
            msg.epoch,
            sender=msg.sender if msg.migrate else None,
        )

    def _learn(self, lock_id: LockId, holder: NodeId, epoch: int) -> None:
        """Note a placement, closing a probe it settles (one that holds a
        re-born token closes by that token's demotion or claim)."""

        self.note_hint(lock_id, holder, epoch)
        probe = self._records.get(lock_id)
        if (
            isinstance(probe, _Probe)
            and epoch >= probe.epoch
            and self._fenced_epoch(lock_id, probe) is None
        ):
            # Another coordinator resolved this lock while we probed.
            self._close(lock_id)

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
        if self._observe(lock_id, holder, epoch):
            return
        # An orphan re-attached since it lost its parent (the token came
        # by, say) is lost no more: the placement may predate that.
        lost = self._lost(lock_id, automaton)
        if isinstance(self._records.get(lock_id), _Orphan):
            self._close(lock_id)
        kernel.dispatch(automaton.observe_epoch(epoch, holder))
        # A departed parent is as gone as a suspected one (a graceful
        # leaver never trips the failure detector).
        needs_home = lost or rehome or kernel.cut_off(automaton.parent)
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
        kernel.unpark()
