"""Token custody after a durable restart or a handoff: fence, settle, resolve.

A node that restores a token from its journal (see :mod:`repro.persist`
and docs/PERSISTENCE.md), or accepts one from a departing holder, cannot
know whether its epoch is still current: a regeneration may have passed
it by while it was down.  Until that is settled the automaton keeps the
token *custody-fenced* (queueing instead of granting) while this layer
probes every live peer.  A placement of at least the restored epoch
surfacing elsewhere fences for good (the node demotes itself under it);
``rejoin_settle`` of silence with a quorum visible confirms, and the
settled placement is broadcast.

The layer owns the per-lock settle state and the rejoin report.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from ..core.contract import handles
from ..core.messages import LockId, NodeId
from ..core.modes import LockMode
from ..membership.messages import HandoffMessage


class Custody:
    """Durable rejoin and custody settle of one node (whose
    :class:`~repro.faults.recovery.RecoveryManager` is *kernel*)."""

    def __init__(self, kernel) -> None:
        self._kernel = kernel
        #: Restored epoch per lock whose custody awaits reconciliation.
        self._pending: Dict[LockId, int] = {}
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
          and an undecodable one leaves its lock to rejoin blank;
        * a restored **token holder** begins custody fencing: it queues
          instead of granting until probes and replayed placement hints
          settle whether its epoch is still current (confirmed after
          ``config.rejoin_settle``, quorum-gated; fenced immediately when
          a placement of at least its epoch surfaces elsewhere);
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
                    continue
                report["locks_restored"] += 1
                if automaton.has_token:
                    automaton.begin_custody_fence()
                    report["custody"].append(lock_id)
                    self.begin(lock_id, automaton.token_epoch)
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
        automaton = self._kernel.lockspace.automaton(lock_id)
        if automaton.custody_pending:
            return  # Custody resolution owns the expiry for this lock.
        self._kernel.dispatch(
            automaton.expire_provisional_children(), "replay"
        )

    # -- the settle handshake ----------------------------------------------

    def begin(self, lock_id: LockId, epoch: int) -> None:
        """Start settling custody of *lock_id*, restored at *epoch*."""

        self._pending[lock_id] = epoch
        self._probe_fire(lock_id)
        self._arm_deadline(lock_id)

    def _probe_fire(self, lock_id: LockId) -> None:
        # Probes ride the raw fabric and may be lost; keep re-asking
        # until custody is resolved either way.
        self._kernel.regeneration.probe(lock_id)
        self._kernel.resend_later(
            ("rejoin-probe", lock_id), self._probe_fire, lock_id
        )

    def _arm_deadline(self, lock_id: LockId) -> None:
        self._kernel.timers.arm(
            ("rejoin-deadline", lock_id),
            self._kernel.config.rejoin_settle,
            self._deadline,
            lock_id,
        )

    def _deadline(self, lock_id: LockId) -> None:
        if not self._kernel.has_quorum():
            # No quorum: a regenerated token may be serving across
            # the cut.  Confirming custody here could fork the lock
            # space, so keep the fence up (and the probes going).
            self._arm_deadline(lock_id)
            return
        # Settle window elapsed with quorum visibility and no
        # contrary evidence: the restored epoch stands.
        self._resolve(lock_id, confirmed=True)

    def observe(self, lock_id: LockId, holder: NodeId, epoch: int) -> bool:
        """A placement of *lock_id* surfaced (a ``TokenAck``, an announce).

        False when custody of the lock is not being settled.  Otherwise
        the evidence is consumed here — the caller must not act on it —
        and a placement of at least the restored epoch naming someone
        else fences at once (``>=`` also covers a handed-off token whose
        transfer was journalled but raced the crash).  One naming *us* is
        a peer replaying our own pre-crash placement; agreement still
        waits for the settle deadline — a higher-epoch regeneration may
        be one hop behind it.
        """

        restored = self._pending.get(lock_id)
        if restored is None:
            return False
        if holder != self._kernel.node_id and epoch >= restored:
            self._resolve(lock_id, confirmed=False, epoch=epoch, holder=holder)
        return True

    def _resolve(
        self,
        lock_id: LockId,
        confirmed: bool,
        epoch: int = 0,
        holder: Optional[NodeId] = None,
    ) -> None:
        kernel = self._kernel
        del self._pending[lock_id]
        kernel.timers.cancel(("rejoin-probe", lock_id))
        kernel.timers.cancel(("rejoin-deadline", lock_id))
        automaton = kernel.lockspace.automaton(lock_id)
        if confirmed:
            kernel.event("custody-confirmed", kernel.node_id)
            kernel.dispatch(automaton.confirm_custody(), "replay")
            # Broadcast the settled placement so survivors re-home and
            # any stale regeneration-in-progress stands down.
            kernel.regeneration.announce(
                lock_id, kernel.node_id, automaton.token_epoch
            )
        else:
            kernel.event("custody-fenced", kernel.node_id)
            kernel.regeneration.note_hint(lock_id, holder, epoch)
            kernel.dispatch(automaton.fence_custody(epoch, holder), "replay")
            if automaton.pending_mode is not LockMode.NONE:
                # A request issued during the fence window was queued
                # locally; re-route it under the new parent.
                kernel.dispatch(automaton.retransmit_pending(), "replay")
                kernel.arm_retry(lock_id)

    # -- handoff from a departing holder -----------------------------------

    @handles(HandoffMessage)
    def on_handoff(self, msg: HandoffMessage) -> None:
        kernel = self._kernel
        if kernel.membership.departing:
            return  # Leaving ourselves; cannot take custody.
        automaton = kernel.lockspace.automaton(msg.lock_id)
        if automaton.has_token:
            if not automaton.custody_pending:
                # Re-sent offer after we already took custody: re-announce
                # so the leaver's demotion cannot be lost.
                kernel.regeneration.announce(
                    msg.lock_id, kernel.node_id, automaton.token_epoch
                )
            return
        if msg.lock_id in self._pending:
            return  # Custody already being settled.
        epoch = max(msg.epoch, automaton.token_epoch) + 1
        kernel.dispatch(automaton.accept_handoff(epoch), "replay")
        kernel.event("handoff-accept", msg.sender)
        # Same settle handshake as a durable custody restore: probe for
        # contrary evidence, confirm after the window, then serve.  The
        # broadcast announce is what demotes the departing holder and
        # re-homes everyone's hints meanwhile.
        self.begin(msg.lock_id, epoch)
        kernel.regeneration.announce(msg.lock_id, kernel.node_id, epoch)
