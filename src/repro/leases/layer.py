"""The lease layer of a node's recovery stack.

Every granted hold of the node is leased (the *own* table), the
heartbeat is the renewal — it advertises the full own table — and every
peer mirrors what it hears (*remote*).  The mirror pins a suspected
holder's copyset entry until its lease runs out, is what revocation acts
on, and bounds how soon a token may be regenerated over a silent holder.
A node that has heard from no majority for a full lease duration fences
itself, strictly before any peer revokes on its behalf.

The layer owns both tables, the sessions that own this node's holds,
the evictions deferred behind a lease, and the fence; it reaches the
rest of the stack through the :class:`repro.faults.recovery.
RecoveryManager` composing it.  A manager whose host never calls
:meth:`LeaseLayer.note_grant` runs leaseless and keeps the pre-lease
behaviour (immediate eviction on suspicion, no self-fence, no sessions).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Set, Tuple

from ..core.messages import LockId, NodeId
from ..core.modes import LockMode
from ..services.sessions import SessionManager
from .lease import Lease, LeaseConfig, LeaseTable, mint_fencing_token


class LeaseLayer:
    """Leases, sessions and the self-fence of one node (whose
    ``RecoveryManager`` is *kernel*)."""

    def __init__(self, kernel) -> None:
        self._kernel = kernel
        self.config = LeaseConfig(
            duration=kernel.config.lease_duration,
            revoke_margin=kernel.config.lease_revoke_margin,
        )
        #: Leases on this node's own holds, advertised (= renewed) with
        #: every outgoing heartbeat.
        self.own = LeaseTable(self.config)
        #: Mirror of peers' advertised leases, rebuilt from their
        #: heartbeats; the source both of eviction deferral (an active
        #: lease pins the holder's copyset entry) and of revocation.
        self.remote = LeaseTable(self.config)
        #: Application sessions owning this node's holds.
        self.sessions = SessionManager(kernel.node_id)
        #: Evictions skipped at suspicion time because the suspect still
        #: held an active lease: suspect -> locks awaiting lease expiry.
        self._deferred: Dict[NodeId, Set[LockId]] = {}
        #: When this node lease-fenced itself (quorum-silent too long;
        #: ``None`` = never).  A fenced node has force-released every
        #: hold, stopped granting, and rejects new acquires; the state is
        #: permanent for the process (a partitioned minority rejoins by
        #: restarting, at which point the journal — not the fenced
        #: incarnation — is authoritative).  The chaos harness uses the
        #: instant to classify the fenced node's dead requests.
        self.fenced_at: Optional[float] = None
        #: Called as ``(holder, lock_id)`` whenever holds are
        #: force-released — self-fence or departure here, revocation of
        #: a peer's expired lease.  The cluster wiring points this at the
        #: compatibility monitor so forced releases are not later
        #: misread as leaked holds.
        self.forced_release: Callable[[NodeId, LockId], None] = (
            lambda holder, lock_id: None
        )
        self.renewals_sent = 0
        self.renewals_received = 0
        self.revoke_latencies: List[float] = []
        self.sessions_gced = 0

    @property
    def fenced(self) -> bool:
        """Whether this node lease-fenced itself."""

        return self.fenced_at is not None

    # -- this node's holds -------------------------------------------------

    def note_grant(self, lock_id: LockId, mode: LockMode) -> None:
        """Record an application-level grant (the host's grant listener
        calls this): lease it, credit the session."""

        with self._kernel.mutex:
            self.mint(lock_id, mode)
            self.sessions.note_grant(lock_id, str(mode), self._kernel.now())
            self._journal_sessions()

    def mint(self, lock_id: LockId, mode: LockMode) -> None:
        """Mint (or refresh) this node's lease on *lock_id*.

        Split out of :meth:`note_grant` for the durable-rejoin reclaim
        path, where the owning session already records the hold and must
        not be credited twice.
        """

        kernel = self._kernel
        with kernel.mutex:
            epoch = kernel.lockspace.automaton(lock_id).token_epoch
            self.own.grant(
                lock_id,
                str(mode),
                kernel.node_id,
                mint_fencing_token(epoch),
                kernel.now(),
            )

    def note_release(self, lock_id: LockId, mode: LockMode) -> None:
        """One hold of *mode* on *lock_id* was released by the application."""

        kernel = self._kernel
        self.sessions.note_release(lock_id, str(mode), kernel.now())
        if not kernel.lockspace.automaton(lock_id).snapshot().held:
            self.own.drop(lock_id, kernel.node_id)
        self._journal_sessions()

    def abandon(self) -> None:
        """Void this node's own leases and sessions (fence, departure)."""

        self.own.clear()
        self.sessions.expire_all()
        self._journal_sessions()

    def _journal_sessions(self) -> None:
        if self._kernel.journal is not None:
            self._kernel.journal.record_sessions(self.sessions.export())

    # -- the heartbeat -----------------------------------------------------

    def advertise(self, now: float, fanout: int) -> Tuple:
        """Renew this node's leases; the rows for the outgoing heartbeat.

        The heartbeat IS the lease renewal: every own lease is renewed
        locally and the full set is advertised so peers' mirrors extend
        in lockstep.  No extra messages per lease.  *fanout* is how many
        live peers the beat will reach.
        """

        if not self.fenced:
            for row in self.own.export():
                self.own.renew(str(row[0]), self._kernel.node_id, now)
        rows = self.own.export()
        self.renewals_sent += len(rows)
        # Advertisement makes a hold reclaimable after a durable
        # restart (peers pin advertised leases until expiry), so the
        # journaled session payload must record it before the beat
        # leaves — a crash between grant and first advertisement
        # leaves the hold correctly un-reclaimable.
        if rows and self.sessions.note_advertised(
            [row[0] for row in rows], fanout=fanout
        ):
            self._journal_sessions()
        return rows

    def on_heartbeat(self, message) -> None:
        """A peer's heartbeat: resolve deferred evictions, renew leases.

        The advertised lease set is authoritative for the sender's
        incarnation: a deferred eviction (suspicion of a leased holder)
        is resolved by comparing against it.  A false suspicion or a
        durable reclaim advertises the hold — keep it; a blank restart
        advertises nothing — evict the ghost copyset entry now.
        """

        kernel = self._kernel
        deferred = self._deferred.pop(message.sender, None)
        if deferred:
            advertised = {str(row[0]) for row in message.leases}
            for lock_id in sorted(deferred):
                if lock_id not in advertised:
                    kernel.dispatch(
                        kernel.lockspace.automaton(lock_id).evict_child(
                            message.sender
                        )
                    )
        self.renewals_received += self.remote.observe(
            message.sender, message.leases, kernel.now()
        )
        if message.view_epoch < kernel.membership.view.epoch:
            # View anti-entropy: the sender runs a stale view (lost the
            # install, or is a joiner still on its bootstrap view).
            kernel.membership.catch_up(message.sender)

    # -- suspected and excised holders -------------------------------------

    def pins(self, lock_id: LockId, holder: NodeId, now: float) -> bool:
        """Whether suspect *holder*'s lease still pins it in *lock_id*'s
        copyset, deferring the eviction if so.

        An unexpired lease keeps the hold pinned until it runs out (it
        may be a false suspicion, and even a real death must wait for
        the holder's self-fence deadline before the hold is broken).
        The eviction resolves at the peer's next heartbeat (kept, if
        advertised) or at lease revocation.
        """

        if not self.remote.holder_active(lock_id, holder, now):
            return False
        self._deferred.setdefault(holder, set()).add(lock_id)
        return True

    def excise(self, peer: NodeId, forced: bool) -> None:
        """*peer* left the view; when *forced* (it is dead, not drained)
        fence out the leases it held."""

        self._deferred.pop(peer, None)
        if not forced:
            return
        for lease in self.remote.leases():
            if lease.holder == peer:
                # The excision evicts the peer everywhere right after.
                self._revoke(lease, evict=False)

    def _revoke(self, lease: Lease, evict: bool) -> None:
        kernel = self._kernel
        self.remote.drop(lease.lock, lease.holder)
        automaton = kernel.lockspace.automaton(lease.lock)
        # Floor first: any in-flight traffic stamped with the revoked
        # token dies at every automaton that saw the revoke.
        automaton.raise_fence_floor(lease.token)
        if evict:
            kernel.dispatch(automaton.evict_child(lease.holder))
        kernel.event("lease-revoke", lease.holder)
        self.forced_release(lease.holder, lease.lock)

    def regen_horizon(self, lock_id: LockId) -> Optional[float]:
        """Earliest safe instant to regenerate *lock_id*'s token.

        ``None`` when no suspected holder has an unexpired lease on the
        lock; otherwise the latest such lease's revocation instant
        (deadline + revoke margin) — by which the holder, if alive, has
        self-fenced.
        """

        now = self._kernel.now()
        horizon = None
        for lease in self.remote.leases():
            if lease.lock != lock_id:
                continue
            if not self._kernel.detector.is_suspected(lease.holder):
                continue
            until = lease.deadline + self.config.revoke_margin
            if until > now and (horizon is None or until > horizon):
                horizon = until
        return horizon

    # -- the periodic tick -------------------------------------------------

    def tick(self, now: float) -> None:
        """Periodic lease maintenance, from the kernel's failure tick.

        Order matters: revocation of peers' expired leases runs first
        (their self-fence deadline — one revoke margin earlier — has
        provably passed), then this node's own self-fence check, then
        session GC.

        A fenced node never revokes: it fenced *because* its view of the
        cluster is stale, so its mirrored peer leases reflect the other
        side of a cut it cannot see across — revoking them would forcibly
        "release" holds that are perfectly healthy over there.  (The
        self-fence check runs before any minority revocation could: a
        quorum-silent node crosses the fence threshold one revoke margin
        before the earliest mirror expiry it could act on.)
        """

        kernel = self._kernel
        for lease in [] if self.fenced else self.remote.expired(now):
            if not kernel.detector.is_suspected(lease.holder):
                # Still heartbeating: its own advertisements refresh or
                # retire the lease; revoking a reachable holder is the
                # clock-skew trap the margin exists to avoid.
                continue
            self.revoke_latencies.append(max(0.0, now - lease.deadline))
            self._deferred.get(lease.holder, set()).discard(lease.lock)
            self._revoke(lease, evict=True)
        self._maybe_self_fence(now)
        removed = self.sessions.gc(now, self.config.session_ttl)
        if removed:
            self.sessions_gced += removed
            self._journal_sessions()

    def _maybe_self_fence(self, now: float) -> None:
        # Managers whose hosting cluster never mints or advertises
        # leases (plain recovery deployments) keep the pre-lease
        # behaviour — no self-fencing.  Any lease traffic, own or
        # observed, opts the node in: a quorum-silent member of a leased
        # cluster must fence even when it holds nothing, because its
        # *pending* requests are stuck forever and must be abandoned for
        # the verdict to account for them.
        in_use = (
            len(self.own)
            or len(self.remote)
            or self.renewals_sent
            or self.renewals_received
        )
        if self.fenced or not in_use:
            return
        if len(self._kernel.membership.view.members) < 3:
            # With two members either node alone "loses quorum" the
            # moment the other blips; self-fencing would turn every
            # false suspicion into data loss.  Two-node clusters keep
            # the pre-lease behaviour (operator-resolved splits).
            return
        if now - self._quorum_horizon() >= self.config.duration:
            self._self_fence(now)

    def _quorum_horizon(self) -> float:
        """The most recent instant this node had contact with a quorum.

        Counting itself, the node needs ``quorum - 1`` peers (at least
        one: the view has three members or more): the horizon is that
        many-th most recent peer last-seen time.  While connected this
        tracks ``now`` to within a heartbeat; on the minority side of a
        partition it freezes at the cut.
        """

        kernel = self._kernel
        view = kernel.membership.view
        seen = sorted(
            kernel.detector.last_seen(peer)
            for peer in view.members
            if peer != kernel.node_id
        )
        return seen[-(view.quorum() - 1)]

    def _self_fence(self, now: float) -> None:
        """Void this node's own leases: force-release every hold.

        Runs strictly before any peer's revocation of the same leases
        (peers wait the extra revoke margin), so at no instant do a
        revoked-and-regranted hold and this node's original hold
        coexist — the Rule-1 argument of the lease layer.
        """

        kernel = self._kernel
        self.fenced_at = now
        self.own.clear()
        self.sessions.expire_all()
        for automaton in list(kernel.lockspace.automata()):
            out, released = automaton.fence_holds()
            kernel.dispatch(out)
            if released:
                self.forced_release(kernel.node_id, automaton.lock_id)
        self._journal_sessions()

    # -- introspection -----------------------------------------------------

    def health(self) -> Optional[Dict[str, object]]:
        """The ``leases`` section of the node's health snapshot
        (``None`` while the layer has seen no lease at all)."""

        kernel = self._kernel
        revoked = kernel.events["lease-revoke"]
        reclaimed = kernel.custody.report.get("holds_reclaimed", 0)
        if not (
            len(self.own) or len(self.remote) or self.fenced or revoked
            or reclaimed
        ):
            return None
        own, remote = (
            [[l.lock, l.mode, l.holder, l.token, l.deadline] for l in leases]
            for leases in (self.own.leases(), self.remote.leases())
        )
        return {
            "fenced": self.fenced,
            "own": own,
            "remote": remote,
            "renewals_sent": self.renewals_sent,
            "renewals_received": self.renewals_received,
            "revoked": revoked,
            "reclaimed": reclaimed,
            "sessions": len(self.sessions),
            "sessions_gced": self.sessions_gced,
        }
