"""Token custody: one fence for every new token.

A token that was regenerated, handed off or restored from the journal
(docs/PERSISTENCE.md) is held *custody-fenced* — queueing, not granting —
while its holder probes every member of the view.  (A token *re-born*
on a restarted home is fenced too, but first asks where the lineage
went: :meth:`Custody.born`.)  A member answers
after re-homing under the holder and re-asserting its owned mode, on the
same session stream.  The fence lifts once the answers are in — the
rule a coordinator claims a lost token by
(:meth:`~repro.faults.recovery.RecoveryManager.answers_in`: a majority
answered, every silent member is suspected) — and no suspected member
holds an unexpired lease on the lock; the placement is then broadcast.
A placement above ours fences for good.  No timer lifts a fence.

The layer owns the per-lock fences and the rejoin report.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, List, Optional, Set

from ..core.contract import handles
from ..core.messages import LockId, NodeId
from ..core.modes import LockMode
from ..membership.messages import HandoffMessage
from .messages import CustodyAnswer, CustodyProbe


@dataclasses.dataclass
class _Fence:
    epoch: int
    note: str  # Of its grants in traces: "regen" if regenerated.
    answered: Set[NodeId] = dataclasses.field(default_factory=set)
    #: Re-born (:meth:`Custody.born`): no claim yet, so it yields to any
    #: other placement of its epoch or above.
    reborn: bool = False


class Custody:
    """Durable rejoin and the custody fence of one node (whose
    :class:`~repro.faults.recovery.RecoveryManager` is *kernel*)."""

    def __init__(self, kernel) -> None:
        self._kernel = kernel
        #: The fence of every lock whose custody awaits its answers.
        self._pending: Dict[LockId, _Fence] = {}
        #: Report of the last :meth:`rejoin_from_journal` (``{}``: none).
        self.report: Dict[str, object] = {}

    def pending(self) -> List[LockId]:
        """Locks whose custody is still being settled, sorted."""

        return sorted(self._pending)

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
        * a restored **token holder** begins custody fencing: it queues
          instead of granting until its answers are in, and is fenced
          for good when a placement above its own surfaces elsewhere;
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
                    self.begin(lock_id, automaton.token_epoch, "replay")
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

        if lock_id not in self._pending:
            automaton = self._kernel.lockspace.automaton(lock_id)
            self._kernel.dispatch(
                automaton.expire_provisional_children(), "replay"
            )

    # -- the fence ---------------------------------------------------------

    def take(self, lock_id: LockId, epoch: int, note: str) -> None:
        """Take *lock_id*'s token fenced at *epoch* — regenerated (*note*
        ``"regen"``) or handed off (``"replay"``) — and claim it."""

        kernel = self._kernel
        automaton = kernel.lockspace.automaton(lock_id)
        kernel.dispatch(automaton.regenerate_token(epoch), note)
        self.begin(lock_id, epoch, note)
        kernel.regeneration.announce(lock_id, kernel.node_id, epoch)

    def begin(self, lock_id: LockId, epoch: int, note: str) -> None:
        """Fence *lock_id*, held at *epoch*, until its answers are in."""

        self._pending[lock_id] = _Fence(epoch, note)
        self._probe_fire(lock_id)

    def born(self, automaton) -> None:
        """A restarted node created *automaton*: a token it was born with
        (its static home is here) is re-born, and held fenced.

        The lineage may have moved on while this node was down — to a
        live holder, or in flight between two — so a re-born token is no
        claim yet: it yields to any placement of its epoch or above (a
        hint known here already, an answer, a later announcement), and
        this node probes for the token as a coordinator does.  Once the
        answers are in and none holds it, the node claims the next epoch
        (:meth:`take`): above every floor answered, so a token still in
        flight is stale on arrival, and served once every member has
        re-homed under it and re-asserted what it owns."""

        if not automaton.has_token:
            return
        kernel, lock_id = self._kernel, automaton.lock_id
        with kernel.mutex:
            epoch = automaton.token_epoch
            kernel.dispatch(automaton.regenerate_token(epoch))
            self._pending[lock_id] = _Fence(epoch, "replay", reborn=True)
            hint = kernel.regeneration.hints.get(lock_id)
            if hint is not None:
                self.observe(lock_id, *hint)
            if lock_id in self._pending:
                kernel.regeneration.ensure_probe(lock_id, kernel.node_id)

    def holds(self, automaton) -> bool:
        """Whether *automaton*'s token is here: a re-born one is not
        until it is claimed."""

        fence = self._pending.get(automaton.lock_id)
        return automaton.has_token and not (fence and fence.reborn)

    def _probe_fire(self, lock_id: LockId) -> None:
        # Probes ride the raw fabric and may be lost: keep asking.
        if self._settle(lock_id):
            return
        kernel, fence = self._kernel, self._pending[lock_id]
        probe = CustodyProbe(
            lock_id=lock_id, sender=kernel.node_id, epoch=fence.epoch
        )
        kernel.broadcast(
            [n for n in kernel.live_peers() if n not in fence.answered], probe
        )
        kernel.resend_later(
            ("rejoin-probe", lock_id), self._probe_fire, lock_id
        )

    def _settle(self, lock_id: LockId) -> bool:
        """Lift *lock_id*'s fence if its answers are in; whether it did."""

        kernel, answered = self._kernel, self._pending[lock_id].answered
        if not kernel.answers_in(answered) or (
            kernel.silent(answered) and kernel.leases.suspect_leased(lock_id)
        ):
            return False
        self._resolve(lock_id, confirmed=True)
        return True

    def observe(
        self,
        lock_id: LockId,
        holder: NodeId,
        epoch: int,
        serving: bool = False,
    ) -> bool:
        """A placement of *lock_id* surfaced; False unless fenced here.

        Otherwise it is consumed (the caller must not act on it) and one
        above ours fences at once: claims rank by ``(epoch, holder)``, a
        *serving* token above every claim of its epoch (transfers keep
        the epoch)."""

        fence, node = self._pending.get(lock_id), self._kernel.node_id
        if fence is None:
            return False
        claim = (epoch, holder) > (fence.epoch, node)
        if holder != node and (
            epoch >= fence.epoch if serving or fence.reborn else claim
        ):
            self._resolve(lock_id, confirmed=False, epoch=epoch, holder=holder)
        return True

    @handles(CustodyAnswer)
    def on_answer(self, msg: CustodyAnswer) -> None:
        if not self.observe(msg.lock_id, msg.parent, msg.epoch, msg.serving):
            return
        fence, node = self._pending.get(msg.lock_id), self._kernel.node_id
        if fence and (msg.parent, msg.epoch) == (node, fence.epoch):
            fence.answered.add(msg.sender)
            self._settle(msg.lock_id)

    def _resolve(
        self,
        lock_id: LockId,
        confirmed: bool,
        epoch: int = 0,
        holder: Optional[NodeId] = None,
    ) -> None:
        kernel, fence = self._kernel, self._pending.pop(lock_id)
        kernel.timers.cancel(("rejoin-probe", lock_id))
        automaton = kernel.lockspace.automaton(lock_id)
        if confirmed:
            kernel.event("custody-confirmed", kernel.node_id)
            kernel.dispatch(automaton.confirm_custody(), fence.note)
            if fence.note == "regen":
                kernel.regeneration.regenerations.append(
                    {"lock": lock_id, "epoch": fence.epoch,
                     "node": kernel.node_id}
                )
            # Broadcast the settled placement so survivors re-home and
            # any stale claim stands down.
            kernel.regeneration.announce(
                lock_id, kernel.node_id, automaton.token_epoch
            )
        else:
            kernel.event("custody-fenced", kernel.node_id)
            kernel.regeneration.learn(lock_id, holder, epoch)
            kernel.dispatch(automaton.fence_custody(epoch, holder), fence.note)
            if automaton.pending_mode is not LockMode.NONE:
                # A request issued during the fence window was queued
                # locally; re-route it under the new parent.
                kernel.dispatch(automaton.retransmit_pending(), fence.note)
                kernel.arm_retry(lock_id)

    @handles(CustodyProbe)
    def on_custody_probe(self, msg: CustodyProbe) -> None:
        """The member side: answer, once re-homed, on the session stream."""

        kernel = self._kernel
        holder, epoch = kernel.regeneration.follow(
            msg.lock_id, msg.sender, msg.epoch
        )
        automaton = kernel.lockspace.automaton(msg.lock_id)
        kernel.channel.send(
            msg.sender,
            CustodyAnswer(
                lock_id=msg.lock_id,
                sender=kernel.node_id,
                parent=holder,
                epoch=epoch,
                serving=automaton.has_token and not automaton.custody_pending,
            ),
        )

    # -- handoff from a departing holder -----------------------------------

    @handles(HandoffMessage)
    def on_handoff(self, msg: HandoffMessage) -> None:
        kernel = self._kernel
        automaton = kernel.lockspace.automaton(msg.lock_id)
        # Leaving ourselves, we cannot take custody; a re-sent offer finds
        # the token here (the leaver answered our fence once demoted).
        if kernel.membership.departing or self.holds(automaton):
            return
        kernel.event("handoff-accept", msg.sender)
        # The claim demotes the leaver; the answers rebuild the copyset.
        epoch = max(msg.epoch, automaton.token_epoch) + 1
        self.take(msg.lock_id, epoch, "replay")
