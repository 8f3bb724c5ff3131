"""Failure detection and recovery coordination for one node.

A :class:`RecoveryManager` wraps a node's
:class:`~repro.core.lockspace.LockSpace` (running with
``ProtocolOptions(recovery=True)``) and supplies everything the paper's
protocol assumes away:

* **Reliable FIFO transport** — protocol messages travel through a
  :class:`~repro.faults.channel.ReliableChannel` (per-pair sequence
  numbers, cumulative acks, capped-backoff retransmission), so drops,
  duplicates and reordering on the fabric are invisible to the automata.
* **Failure detection** — periodic heartbeats feed a
  :class:`~repro.faults.detector.HeartbeatDetector`; any inbound traffic
  counts as life.
* **Request retransmission** — each of the node's own pending requests
  is re-forwarded on a capped exponential backoff until granted (the
  duplicates are idempotent at protocol level); this is what survives a
  request dying in a crashed parent's volatile queue.
* **Token regeneration** — when a lock's parent is suspected, the
  automaton evicts the dead subtree and, if the lock is orphaned, the
  highest-id surviving member coordinates: it probes all live peers for
  a surviving token and, if none answers, regenerates the token under a
  higher epoch and broadcasts the new placement so stale-epoch tokens
  are discarded wherever they resurface (see docs/FAULTS.md for the
  safety argument and its limits).

The manager is transport-agnostic: it needs only a scheduler
(``now``/``call_later``) and a raw ``send(dest, message)``, so the same
class runs under the simulator and the threaded/TCP runtimes.
"""

from __future__ import annotations

import dataclasses
import threading
from typing import Callable, Dict, Iterable, List, Optional, Set, Tuple

from ..core.lockspace import LockSpace
from ..core.messages import Envelope, LockId, Message, NodeId
from ..core.modes import LockMode
from ..leases import LeaseConfig, LeaseTable, mint_fencing_token
from ..membership import (
    ChildMigrate,
    HandoffMessage,
    JoinRequest,
    MembershipView,
    StateTransfer,
    ViewAck,
    ViewInstall,
    ViewProposal,
)
from ..obs.sink import ObsSink
from ..services.sessions import SessionManager
from .channel import ReliableChannel
from .detector import HeartbeatDetector
from .messages import (
    HeartbeatMessage,
    OrphanReport,
    ReparentMessage,
    SessionAck,
    TokenAck,
    TokenProbe,
)
from .scheduler import Timers

#: Raw fabric send: ``(dest, message)``.
TransportSend = Callable[[NodeId, Message], None]


@dataclasses.dataclass(frozen=True)
class RecoveryConfig:
    """Timing knobs of the recovery layer (seconds).

    Defaults suit the simulator's 150 ms mean latency; the threaded
    runtime tests shrink everything by an order of magnitude.
    """

    #: Heartbeat period; also the failure-detector polling period.
    heartbeat_interval: float = 0.5
    #: Silence after which a peer is suspected (≥ several heartbeats).
    suspect_timeout: float = 2.5
    #: First application-level request retransmit after this long...
    retry_base: float = 0.75
    #: ...doubling per retry up to this cap.
    retry_cap: float = 5.0
    #: Channel-level frame retransmission backoff (faster: it repairs
    #: single lost frames, not lost state).
    channel_retry_base: float = 0.25
    channel_retry_cap: float = 2.0
    #: How long the coordinator waits for a TokenAck before regenerating.
    probe_timeout: float = 1.0
    #: Pause between claiming a regeneration epoch and serving from the
    #: regenerated token, during which survivors reattach and re-assert
    #: their owned modes (the copyset of the dead root is rebuilt from
    #: their releases; granting earlier could violate Rule 1).
    regen_settle: float = 1.5
    #: Orphans re-send their OrphanReport at this period until reparented.
    orphan_interval: float = 0.5
    #: How long a durably-restarted token holder keeps custody fenced
    #: (queueing instead of granting) while TokenProbes and replayed
    #: placement hints establish whether its restored epoch is still
    #: current.  Quorum-gated like ``regen_settle``, and for the same
    #: reason: confirming on the minority side of a partition could fork
    #: the lock space against a regenerated token across the cut.
    rejoin_settle: float = 1.5
    #: How long a granted hold's lease lives past its last renewal
    #: (renewals piggyback on heartbeats).  Also the quorum-silence
    #: horizon after which a holder must self-fence: a node that has
    #: heard from no majority for this long can no longer assume its
    #: leases are being honoured.  Must exceed the longest partition any
    #: plan expects to *heal* (the canned ``partition`` plan severs for
    #: 5 s), or a healed node spuriously revokes itself.
    lease_duration: float = 6.0
    #: Extra slack peers wait past a lease deadline before revoking.
    #: The holder self-fences at ``lease_duration`` of silence while
    #: peers revoke only at ``lease_duration + lease_revoke_margin``, so
    #: the forced release always happens holder-side first — the
    #: ordering that keeps revocation Rule-1 safe without synchronized
    #: clocks.
    lease_revoke_margin: float = 1.5


class RecoveryManager:
    """Per-node recovery engine: channel + detector + token coordinator."""

    def __init__(
        self,
        node_id: NodeId,
        lockspace: LockSpace,
        membership: Iterable[NodeId],
        scheduler,
        transport_send: TransportSend,
        config: RecoveryConfig = RecoveryConfig(),
        obs: Optional[ObsSink] = None,
        boot: int = 0,
    ) -> None:
        self.node_id = node_id
        self.lockspace = lockspace
        self.membership = sorted(set(membership))
        self.config = config
        self.obs = obs
        self.boot = boot
        self._scheduler = scheduler
        self._transport_send = transport_send
        self._mutex = threading.RLock()
        #: Every timer of this node but the channel's; running from
        #: :meth:`start` to :meth:`stop`.
        self.timers = Timers(scheduler, self._mutex, running=False)
        peers = [n for n in self.membership if n != node_id]
        self.detector = HeartbeatDetector(
            peers, config.suspect_timeout, now=scheduler.now()
        )
        self.channel = ReliableChannel(
            node_id,
            scheduler,
            send=self._raw_send,
            deliver=self._deliver,
            retry_base=config.channel_retry_base,
            retry_cap=config.channel_retry_cap,
            boot=boot,
            mutex=self._mutex,
        )
        #: Causal tracer, adopted from the obs sink when it has one; the
        #: session channel shares it so frames join request chains.
        self.tracer = getattr(obs, "tracer", None) if obs is not None else None
        self.channel.tracer = self.tracer
        self.channel.obs = obs
        #: Locks whose parent is suspected and that await a reparent:
        #: lock_id -> suspect.
        self._orphans: Dict[LockId, NodeId] = {}
        #: Coordinator state per lock being probed:
        #: lock_id -> {"epoch", "reporters"}.
        self._probes: Dict[LockId, Dict[str, object]] = {}
        #: Last announced token placement: lock_id -> (holder, epoch).
        #: Replayed to restarted peers so a resurrected stale token home
        #: demotes itself (see docs/FAULTS.md).
        self._token_hints: Dict[LockId, Tuple[NodeId, int]] = {}
        #: Latest boot incarnation seen per peer (restart detection).
        self._peer_boots: Dict[NodeId, int] = {}
        #: Restored epoch per lock whose token was durably restored (or
        #: handed off) and awaits reconciliation.
        self._rejoin: Dict[LockId, int] = {}
        #: Durability journal of this node, attached by the cluster
        #: wiring when persistence is enabled (see repro.persist).
        self.journal = None
        # -- leases and sessions (see repro.leases / repro.services) ----
        self.lease_config = LeaseConfig(
            duration=config.lease_duration,
            revoke_margin=config.lease_revoke_margin,
        )
        #: Leases on this node's own holds, advertised (= renewed) with
        #: every outgoing heartbeat.  Populated only when the hosting
        #: cluster calls :meth:`note_grant`; managers that never mint a
        #: lease behave exactly as before the lease layer existed.
        self.own_leases = LeaseTable(self.lease_config)
        #: Mirror of peers' advertised leases, rebuilt from their
        #: heartbeats; the source both of eviction deferral (an active
        #: lease pins the holder's copyset entry) and of revocation.
        self.remote_leases = LeaseTable(self.lease_config)
        #: Application sessions owning this node's holds.
        self.sessions = SessionManager(node_id)
        #: Evictions skipped at suspicion time because the suspect still
        #: held an active lease: suspect -> locks awaiting lease expiry.
        self._deferred_evictions: Dict[NodeId, Set[LockId]] = {}
        self._fenced = False
        #: When this node self-fenced (``None`` = never); the chaos
        #: harness uses it to classify the fenced node's dead requests.
        self.fenced_at: Optional[float] = None
        #: Whether this incarnation restored holds from its journal
        #: (advertised in heartbeats: a restored peer's deferred
        #: evictions must wait for its re-advertised leases).
        self._restored = False
        #: Called as ``hook(holder, lock_id)`` whenever the lease layer
        #: force-releases holds — self-fence here, or revocation of a
        #: peer's expired lease.  The cluster wiring points this at the
        #: compatibility monitor so forced releases are not later
        #: misread as leaked holds.
        self.forced_release_hook: Optional[
            Callable[[NodeId, LockId], None]
        ] = None
        # -- verdict / test counters ------------------------------------
        self.app_retransmits = 0
        self.suspect_log: List[Tuple[float, NodeId]] = []
        self.regenerations: List[Dict[str, object]] = []
        self.custody_confirmed = 0
        self.custody_fenced = 0
        self.lease_renewals_sent = 0
        self.lease_renewals_received = 0
        self.leases_revoked = 0
        self.revoke_latencies: List[float] = []
        self.holds_reclaimed = 0
        self.sessions_gced = 0
        #: Report of the last :meth:`rejoin_from_journal`, if any.
        self.rejoin_report: Optional[Dict[str, object]] = None
        # -- membership (see repro.membership / docs/MEMBERSHIP.md) ------
        #: Epoch of the installed membership view; 0 is the bootstrap
        #: view (the construction-time member list).
        self.view_epoch = 0
        #: Last installed view, kept for anti-entropy re-broadcast.
        self._view_record: Optional[Dict[str, object]] = None
        #: Proposer state of an in-flight view change, if any.
        self._view_pending: Optional[Dict[str, object]] = None
        #: Highest ``(epoch, proposer)`` promised; later proposals win.
        self._view_promised: Tuple[int, int] = (0, -1)
        #: Nodes excised by an installed view — their stale traffic is
        #: dropped wholesale and they are never re-suspected.
        self._departed: Set[NodeId] = set()
        #: Graceful-departure driver state (this node is leaving).
        self._departure: Optional[Dict[str, object]] = None
        self._departing = False
        #: Joiner side: the sponsor asked for admission, until admitted.
        self._sponsor: Optional[NodeId] = None
        #: Log of installed views (verdicts / tests): one dict per install.
        self.view_installs: List[Dict[str, object]] = []
        self.views_proposed = 0
        self.handoffs_accepted = 0
        self.children_adopted = 0

    # ------------------------------------------------------------------
    # Lifecycle.
    # ------------------------------------------------------------------

    def start(self) -> None:
        """Begin heartbeating and failure checking."""

        with self._mutex:
            if self.timers.running:
                return
            self.timers.running = True
            self._heartbeat_tick()
            self.timers.arm(
                "failure-tick",
                self.config.heartbeat_interval,
                self._failure_tick,
            )

    def stop(self) -> None:
        """Stop all periodic activity (crash simulation / shutdown)."""

        with self._mutex:
            self.timers.running = False
            self.timers.clear()

    # ------------------------------------------------------------------
    # Introspection.
    # ------------------------------------------------------------------

    def health_snapshot(self):
        """Read-only :class:`repro.obs.live.RecoveryHealth` of this node.

        Captured under the manager mutex so the channel backlog, detector
        verdicts and token hints are mutually consistent.
        """

        from ..obs.live import RecoveryHealth

        with self._mutex:
            durability = None
            if self.journal is not None:
                stats = self.journal.stats()
                report = self.rejoin_report or {}
                durability = {
                    "appends": int(stats.get("appends", 0)),
                    "compactions": int(stats.get("compactions", 0)),
                    "locks_restored": int(report.get("locks_restored", 0)),
                    "holds_reclaimed": int(report.get("holds_reclaimed", 0)),
                    "custody_confirmed": self.custody_confirmed,
                    "custody_fenced": self.custody_fenced,
                }
            leases = None
            if (
                len(self.own_leases)
                or len(self.remote_leases)
                or self._fenced
                or self.leases_revoked
                or self.holds_reclaimed
            ):
                leases = {
                    "fenced": self._fenced,
                    "own": [
                        [l.lock, l.mode, l.holder, l.token, l.deadline]
                        for l in self.own_leases.leases()
                    ],
                    "remote": [
                        [l.lock, l.mode, l.holder, l.token, l.deadline]
                        for l in self.remote_leases.leases()
                    ],
                    "renewals_sent": self.lease_renewals_sent,
                    "renewals_received": self.lease_renewals_received,
                    "revoked": self.leases_revoked,
                    "reclaimed": self.holds_reclaimed,
                    "sessions": len(self.sessions),
                    "sessions_gced": self.sessions_gced,
                }
            return RecoveryHealth(
                boot=self.boot,
                suspected=tuple(sorted(self.detector.suspected)),
                live_peers=tuple(self.detector.live_peers()),
                channel_backlog=self.channel.backlog(),
                channel_retransmits=self.channel.retransmits,
                app_retransmits=self.app_retransmits,
                token_hints=tuple(
                    sorted(
                        (lock_id, holder, epoch)
                        for lock_id, (holder, epoch)
                        in self._token_hints.items()
                    )
                ),
                custody_pending=tuple(sorted(self._rejoin)),
                durability=durability,
                leases=leases,
                view_epoch=self.view_epoch,
                view_members=tuple(self.membership),
            )

    # ------------------------------------------------------------------
    # Sending.
    # ------------------------------------------------------------------

    def _raw_send(self, dest: NodeId, message: Message) -> None:
        self._transport_send(dest, message)

    def _send_protocol(self, dest: NodeId, message: Message) -> None:
        """Protocol traffic rides the reliable channel."""

        self.channel.send(dest, message)

    def _dispatch(self, envelopes: List[Envelope]) -> None:
        """Ship automaton output: protocol messages, sessioned."""

        for envelope in envelopes:
            self._send_protocol(envelope.dest, envelope.message)

    def _dispatch_replay(self, envelopes: List[Envelope]) -> None:
        """Dispatch, annotating traces as durable-rejoin replay traffic."""

        if self.tracer is not None and envelopes:
            with self.tracer.annotated(self.node_id, "replay"):
                self._dispatch(envelopes)
        else:
            self._dispatch(envelopes)

    # ------------------------------------------------------------------
    # Application API.
    # ------------------------------------------------------------------

    def request(
        self,
        lock_id: LockId,
        mode: LockMode,
        ctx: object = None,
        priority: int = 0,
    ) -> None:
        """Request *lock_id* in *mode* with retransmission armed."""

        with self._mutex:
            self._dispatch(self.lockspace.request(lock_id, mode, ctx, priority))
            if (
                self.lockspace.automaton(lock_id).pending_mode
                is not LockMode.NONE
            ):
                self._arm_retry(lock_id)

    def release(self, lock_id: LockId, mode: LockMode) -> None:
        """Release one hold of *mode* on *lock_id*.

        A no-op on a lease-fenced node: the fence already force-released
        every hold (and reported it through ``forced_release_hook``), so
        a late application release has nothing left to release.
        """

        with self._mutex:
            if self._fenced:
                return
            self._dispatch(self.lockspace.release(lock_id, mode))
            now = self._scheduler.now()
            self.sessions.note_release(lock_id, str(mode), now)
            held = self.lockspace.automaton(lock_id).snapshot().held
            if not held:
                self.own_leases.drop(lock_id, self.node_id)
            self._journal_sessions()

    def upgrade(self, lock_id: LockId, ctx: object = None) -> None:
        """Upgrade a held ``U`` on *lock_id* to ``W``."""

        with self._mutex:
            self._dispatch(self.lockspace.upgrade(lock_id, ctx))

    # ------------------------------------------------------------------
    # Leases and sessions (see repro.leases / repro.services.sessions).
    # ------------------------------------------------------------------

    @property
    def fenced(self) -> bool:
        """Whether this node lease-fenced itself (quorum-silent too long).

        A fenced node has force-released every hold, stopped granting,
        and rejects new acquires; the state is permanent for the process
        (a partitioned minority rejoins by restarting, at which point
        the journal — not the fenced incarnation — is authoritative).
        """

        return self._fenced

    def note_grant(self, lock_id: LockId, mode: LockMode) -> None:
        """Record an application-level grant: lease it, credit the session.

        Called by the hosting cluster's grant listener.  Managers whose
        cluster never calls this run leaseless and keep the pre-lease
        behaviour everywhere (immediate eviction on suspicion, no
        self-fencing, no session tracking).
        """

        with self._mutex:
            now = self._scheduler.now()
            self.mint_lease(lock_id, mode)
            self.sessions.note_grant(lock_id, str(mode), now)
            self._journal_sessions()

    def mint_lease(self, lock_id: LockId, mode: LockMode) -> int:
        """Mint (or refresh) this node's lease on *lock_id*; return token.

        Split out of :meth:`note_grant` for the durable-rejoin reclaim
        path, where the owning session already records the hold and must
        not be credited twice.
        """

        with self._mutex:
            now = self._scheduler.now()
            epoch = self.lockspace.automaton(lock_id).token_epoch
            token = mint_fencing_token(epoch)
            lease = self.own_leases.grant(
                lock_id, str(mode), self.node_id, token, now
            )
            return lease.token

    def _journal_sessions(self) -> None:
        if self.journal is not None:
            self.journal.record_sessions(self.sessions.export())

    def _quorum_horizon(self) -> float:
        """The most recent instant this node had contact with a quorum.

        Counting itself, the node needs ``⌊n/2⌋`` peers: the horizon is
        the ``⌊n/2⌋``-th most recent peer last-seen time.  While
        connected this tracks ``now`` to within a heartbeat; on the
        minority side of a partition it freezes at the cut.
        """

        peers_needed = len(self.membership) // 2 + 1 - 1
        if peers_needed <= 0:
            return self._scheduler.now()
        seen = sorted(
            (
                self.detector.last_seen(peer)
                for peer in self.membership
                if peer != self.node_id
            ),
            reverse=True,
        )
        if peers_needed > len(seen):
            return 0.0
        return seen[peers_needed - 1]

    def _lease_tick(self, now: float) -> None:
        """Periodic lease maintenance, from :meth:`_failure_tick`.

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

        for lease in [] if self._fenced else self.remote_leases.expired(now):
            if not self.detector.is_suspected(lease.holder):
                # Still heartbeating: its own advertisements refresh or
                # retire the lease; revoking a reachable holder is the
                # clock-skew trap the margin exists to avoid.
                continue
            self.remote_leases.drop(lease.lock, lease.holder)
            self.leases_revoked += 1
            self.revoke_latencies.append(max(0.0, now - lease.deadline))
            deferred = self._deferred_evictions.get(lease.holder)
            if deferred is not None:
                deferred.discard(lease.lock)
                if not deferred:
                    del self._deferred_evictions[lease.holder]
            automaton = self.lockspace.automaton(lease.lock)
            # Floor first: any in-flight traffic stamped with the
            # revoked token dies at every automaton that saw the revoke.
            automaton.raise_fence_floor(lease.token)
            self._dispatch(automaton.evict_child(lease.holder))
            if self.obs is not None:
                self.obs.fault("lease-revoke", lease.holder)
            if self.forced_release_hook is not None:
                self.forced_release_hook(lease.holder, lease.lock)
        self._maybe_self_fence(now)
        removed = self.sessions.gc(now, self.lease_config.session_ttl)
        if removed:
            self.sessions_gced += removed
            self._journal_sessions()

    def _maybe_self_fence(self, now: float) -> None:
        if self._fenced or not self._leases_in_use():
            return
        if len(self.membership) < 3:
            # With two members either node alone "loses quorum" the
            # moment the other blips; self-fencing would turn every
            # false suspicion into data loss.  Two-node clusters keep
            # the pre-lease behaviour (operator-resolved splits).
            return
        if now - self._quorum_horizon() >= self.lease_config.duration:
            self._self_fence(now)

    def _leases_in_use(self) -> bool:
        """Whether this cluster runs the lease layer at all.

        Managers whose hosting cluster never mints or advertises leases
        (plain recovery deployments) keep the pre-lease behaviour —
        no self-fencing.  Any lease traffic, own or observed, opts the
        node in: a quorum-silent member of a leased cluster must fence
        even when it holds nothing, because its *pending* requests are
        stuck forever and must be abandoned for the verdict to account
        for them.
        """

        return bool(
            len(self.own_leases)
            or len(self.remote_leases)
            or self.lease_renewals_sent
            or self.lease_renewals_received
        )

    def _self_fence(self, now: float) -> None:
        """Void this node's own leases: force-release every hold.

        Runs strictly before any peer's revocation of the same leases
        (peers wait the extra revoke margin), so at no instant do a
        revoked-and-regranted hold and this node's original hold
        coexist — the Rule-1 argument of the lease layer.
        """

        self._fenced = True
        self.fenced_at = now
        self.own_leases.clear()
        self.sessions.expire_all()
        for automaton in list(self.lockspace.automata()):
            out, released = automaton.fence_holds()
            self._dispatch(out)
            if released and self.forced_release_hook is not None:
                self.forced_release_hook(self.node_id, automaton.lock_id)
        self._journal_sessions()

    def _lease_regen_horizon(self, lock_id: LockId) -> Optional[float]:
        """Earliest safe instant to regenerate *lock_id*'s token.

        ``None`` when no suspected holder has an unexpired lease on the
        lock; otherwise the latest such lease's revocation instant
        (deadline + revoke margin) — by which the holder, if alive, has
        self-fenced.
        """

        now = self._scheduler.now()
        horizon = None
        for lease in self.remote_leases.leases():
            if lease.lock != lock_id:
                continue
            if not self.detector.is_suspected(lease.holder):
                continue
            until = lease.deadline + self.lease_config.revoke_margin
            if until > now and (horizon is None or until > horizon):
                horizon = until
        return horizon

    # ------------------------------------------------------------------
    # Inbound.
    # ------------------------------------------------------------------

    def handle(self, message: Message) -> List[Envelope]:
        """Transport sink: consume one message off the fabric.

        Fits the simulator's handler signature by always returning ``[]``
        — replies go out through :attr:`channel`/raw sends instead, so
        they too enjoy reliability and fault injection.
        """

        with self._mutex:
            if not self.timers.running:
                return []
            if message.sender in self._departed:
                # Stale traffic from an excised node: its token (if any)
                # was handed off or regenerated and its copyset entries
                # evicted at view install; nothing it says is current.
                return []
            # A SessionAck's ``boot`` echoes the acked FRAME's boot (the
            # receiver of this ack), not the ack sender's incarnation.
            # Reading it as the sender's would make every peer acking a
            # restarted node's frames look freshly restarted itself, and
            # the resulting stop_peer would wipe a live in-stream mid
            # conversation — deadlocking the pair (the sender believes
            # its early frames are acked and never resends; the wiped
            # receiver waits for seq 0 forever).
            boot = getattr(message, "boot", None)
            if isinstance(message, SessionAck):
                boot = None
            self._note_life(message.sender, boot)
            if self.channel.handle(message):
                return []
            if isinstance(message, HeartbeatMessage):
                self._on_heartbeat(message)
                return []
            if isinstance(message, OrphanReport):
                self._on_orphan_report(message)
            elif isinstance(message, TokenProbe):
                self._on_token_probe(message)
            elif isinstance(message, TokenAck):
                self._on_token_ack(message)
            elif isinstance(message, ReparentMessage):
                self._on_reparent(message)
            elif isinstance(message, ViewProposal):
                self._on_view_proposal(message)
            elif isinstance(message, ViewAck):
                self._on_view_ack(message)
            elif isinstance(message, ViewInstall):
                self._on_view_install(message)
            elif isinstance(message, JoinRequest):
                self._on_join_request(message)
            elif isinstance(message, StateTransfer):
                self._on_state_transfer(message)
            elif isinstance(message, HandoffMessage):
                self._on_handoff(message)
            elif isinstance(message, ChildMigrate):
                self._on_child_migrate(message)
            else:
                # A raw (unsessioned) protocol message; tolerated so the
                # manager can also front a plain reliable transport.
                self._deliver(message.sender, message)
        return []

    def _deliver(self, peer: NodeId, payload: Message) -> None:
        """In-order payload from the channel: run the automaton."""

        with self._mutex:
            self._dispatch(self.lockspace.handle(payload))

    def _on_heartbeat(self, message: HeartbeatMessage) -> None:
        """A peer's heartbeat: resolve deferred evictions, renew leases.

        The advertised lease set is authoritative for the sender's
        incarnation: a deferred eviction (suspicion of a leased holder)
        is resolved by comparing against it.  A false suspicion or a
        durable reclaim advertises the hold — keep it; a blank restart
        advertises nothing — evict the ghost copyset entry now.
        """

        now = self._scheduler.now()
        deferred = self._deferred_evictions.pop(message.sender, None)
        if deferred:
            advertised = {str(row[0]) for row in message.leases}
            for lock_id in sorted(deferred):
                if lock_id in advertised:
                    continue
                self._dispatch(
                    self.lockspace.automaton(lock_id).evict_child(
                        message.sender
                    )
                )
        self.lease_renewals_received += self.remote_leases.observe(
            message.sender, message.leases, now
        )
        if message.view_epoch < self.view_epoch:
            # View anti-entropy: the sender runs a stale view (lost the
            # install, or is a joiner still on its bootstrap view).
            self._send_view_install(message.sender)

    def _note_life(self, peer: NodeId, boot: Optional[int]) -> None:
        now = self._scheduler.now()
        revived = self.detector.beat(peer, now)
        restarted = False
        if boot is not None and peer != self.node_id:
            known = self._peer_boots.get(peer, 0)
            if boot > known:
                self._peer_boots[peer] = boot
                restarted = known > 0 or boot > 0
        if revived and self.obs is not None:
            self.obs.fault("unsuspect", peer)
        if restarted:
            # The peer's channel sessions died with it.  A restart faster
            # than the suspect timeout never reaches ``_on_suspect``, so
            # without this the stale outbound stream would keep numbering
            # frames the new incarnation rejects.
            self.channel.stop_peer(peer)
            # Re-assert our subtrees toward the restarted node: a durable
            # restart holds our copyset entry only *provisionally* until
            # a live announcement confirms it, and a blank restart must
            # relearn it from scratch.
            reassert: List[Envelope] = []
            for automaton in list(self.lockspace.automata()):
                if automaton.parent == peer:
                    reassert.extend(automaton.reassert_owned())
            self._dispatch_replay(reassert)
        if restarted or revived:
            # A restarted peer rejoins blank; a revived one may sit on
            # the wrong side of a healed partition.  Replay the known
            # token placements so a stale token copy over there (a
            # resurrected token home, or a pre-partition root) demotes
            # itself immediately.
            for lock_id, (holder, epoch) in self._token_hints.items():
                self._raw_send(
                    peer,
                    ReparentMessage(
                        lock_id=lock_id,
                        sender=self.node_id,
                        parent=holder,
                        epoch=epoch,
                    ),
                )

    # ------------------------------------------------------------------
    # Durable rejoin (see repro.persist and docs/PERSISTENCE.md).
    # ------------------------------------------------------------------

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

        report: Dict[str, object] = {
            "locks_restored": 0,
            "holds_released": 0,
            "holds_reclaimed": 0,
            "custody": [],
            "reasserted": 0,
            "snapshot_mismatches": 0,
            "reclaim_partial_fanout": 0,
        }
        with self._mutex:
            for lock_id in sorted(state):
                payload = state[lock_id]
                automaton = self.lockspace.automaton(lock_id)
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
                    if self.obs is not None:
                        self.obs.fault("persist-mismatch", self.node_id)
                if not adopted:
                    continue
                report["locks_restored"] += 1
                if automaton.has_token:
                    automaton.begin_custody_fence()
                    report["custody"].append(lock_id)
                    self._begin_rejoin(lock_id, automaton.token_epoch)
                self._dispatch_replay(automaton.abandon_pending())
                for mode, count in sorted(
                    automaton.held_modes.items(), key=lambda hold: str(hold[0])
                ):
                    for _ in range(count):
                        if reclaim is not None and reclaim(lock_id, mode):
                            report["holds_reclaimed"] += 1
                            self._check_reclaim_fanout(lock_id, report)
                            continue
                        self._dispatch_replay(
                            self.lockspace.release(lock_id, mode)
                        )
                        report["holds_released"] += 1
                if not automaton.has_token:
                    out = automaton.reassert_owned()
                    report["reasserted"] += len(out)
                    self._dispatch_replay(out)
                    self.timers.arm(
                        ("provisional", lock_id),
                        self.config.rejoin_settle,
                        self._provisional_expiry_fire,
                        lock_id,
                    )
            self.rejoin_report = report
            self.holds_reclaimed = int(report["holds_reclaimed"])
            if report["locks_restored"]:
                self._restored = True
                if self.obs is not None:
                    self.obs.fault("rejoin", self.node_id)
        return report

    def _check_reclaim_fanout(
        self, lock_id: LockId, report: Dict[str, object]
    ) -> None:
        """Warn when a reclaimed hold's pre-crash advertisement was partial.

        Reclaim safety rests on the hold's lease having been advertised
        by broadcast heartbeat, so that peers pinned the copyset entry
        while this node was down (PROTOCOL.md §14).  The session journal
        records how many live peers each advertisement actually reached;
        if that fan-out never covered a quorum of the current view, the
        pinning assumption is unproven — surface it as a fault event
        instead of reclaiming silently.
        """

        fanout = self.sessions.advert_fanout(lock_id)
        if fanout is None:
            return  # Pre-fanout journal payload: nothing recorded.
        reached = fanout + 1  # The advertiser itself counts.
        if reached * 2 <= len(self.membership):
            report["reclaim_partial_fanout"] = (
                int(report.get("reclaim_partial_fanout", 0)) + 1
            )
            if self.obs is not None:
                self.obs.fault("reclaim-partial-fanout", self.node_id)

    def _begin_rejoin(self, lock_id: LockId, epoch: int) -> None:
        self._rejoin[lock_id] = int(epoch)
        self._rejoin_probe_fire(lock_id)
        self.timers.arm(
            ("rejoin-deadline", lock_id),
            self.config.rejoin_settle,
            self._rejoin_deadline,
            lock_id,
        )

    def _probe_rejoin(self, lock_id: LockId) -> None:
        """Ask every live peer whether a token for *lock_id* lives there."""

        message = TokenProbe(lock_id=lock_id, sender=self.node_id)
        for peer in self.membership:
            if peer != self.node_id and not self.detector.is_suspected(peer):
                self._raw_send(peer, message)

    def _rejoin_probe_fire(self, lock_id: LockId) -> None:
        # Probes ride the raw fabric and may be lost; keep re-asking
        # until custody is resolved either way.
        self._probe_rejoin(lock_id)
        self.timers.arm(
            ("rejoin-probe", lock_id),
            self.config.orphan_interval,
            self._rejoin_probe_fire,
            lock_id,
        )

    def _rejoin_deadline(self, lock_id: LockId) -> None:
        live = [
            n
            for n in self.membership
            if n == self.node_id or not self.detector.is_suspected(n)
        ]
        if len(live) * 2 <= len(self.membership):
            # No quorum: a regenerated token may be serving across
            # the cut.  Confirming custody here could fork the lock
            # space, so keep the fence up (and the probes going).
            self.timers.arm(
                ("rejoin-deadline", lock_id),
                self.config.rejoin_settle,
                self._rejoin_deadline,
                lock_id,
            )
            return
        # Settle window elapsed with quorum visibility and no
        # contrary evidence: the restored epoch stands.
        self._resolve_rejoin(lock_id, confirmed=True)

    def _provisional_expiry_fire(self, lock_id: LockId) -> None:
        automaton = self.lockspace.automaton(lock_id)
        if automaton.custody_pending:
            return  # Custody resolution owns the expiry for this lock.
        self._dispatch_replay(automaton.expire_provisional_children())

    def _resolve_rejoin(
        self,
        lock_id: LockId,
        confirmed: bool,
        epoch: int = 0,
        holder: Optional[NodeId] = None,
    ) -> None:
        if self._rejoin.pop(lock_id, None) is None:
            return
        self.timers.cancel(("rejoin-probe", lock_id))
        self.timers.cancel(("rejoin-deadline", lock_id))
        automaton = self.lockspace.automaton(lock_id)
        if confirmed:
            self.custody_confirmed += 1
            if self.obs is not None:
                self.obs.fault("custody-confirmed", self.node_id)
            self._dispatch_replay(automaton.confirm_custody())
            # Broadcast the settled placement so survivors re-home and
            # any stale regeneration-in-progress stands down.
            self._announce(
                lock_id, self.node_id, automaton.token_epoch, broadcast=True
            )
        else:
            self.custody_fenced += 1
            if self.obs is not None:
                self.obs.fault("custody-fenced", self.node_id)
            self._note_hint(lock_id, holder, epoch)
            self._dispatch_replay(automaton.fence_custody(epoch, holder))
            if automaton.pending_mode is not LockMode.NONE:
                # A request issued during the fence window was queued
                # locally; re-route it under the new parent.
                self._dispatch_replay(automaton.retransmit_pending())
                self._arm_retry(lock_id)

    # ------------------------------------------------------------------
    # Periodic timers.
    # ------------------------------------------------------------------

    def _heartbeat_tick(self) -> None:
        # The heartbeat IS the lease renewal: every own lease is
        # renewed locally and the full set is advertised so peers'
        # mirrors extend in lockstep.  No extra messages per lease.
        now = self._scheduler.now()
        self._sweep_departed_traces()
        if not self._fenced:
            for row in self.own_leases.export():
                self.own_leases.renew(str(row[0]), self.node_id, now)
        leases = self.own_leases.export()
        self.lease_renewals_sent += len(leases)
        # Advertisement makes a hold reclaimable after a durable
        # restart (peers pin advertised leases until expiry), so the
        # journaled session payload must record it before the beat
        # leaves — a crash between grant and first advertisement
        # leaves the hold correctly un-reclaimable.
        peers = [n for n in self.membership if n != self.node_id]
        fanout = len(
            [p for p in peers if not self.detector.is_suspected(p)]
        )
        if leases and self.sessions.note_advertised(
            [row[0] for row in leases], fanout=fanout
        ):
            self._journal_sessions()
        beat = HeartbeatMessage(
            lock_id="",
            sender=self.node_id,
            boot=self.boot,
            leases=leases,
            restored=self._restored,
            view_epoch=self.view_epoch,
        )
        self.timers.arm(
            "heartbeat-tick",
            self.config.heartbeat_interval,
            self._heartbeat_tick,
        )
        for peer in peers:
            self._raw_send(peer, beat)

    def _sweep_departed_traces(self) -> None:
        """Evict any copyset/queue trace of a departed node (called from
        the heartbeat tick, under the mutex).

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

        if not self._departed:
            return
        for automaton in list(self.lockspace.automata()):
            stale = set(automaton.children) & self._departed
            stale.update(
                req.origin
                for req in automaton.queued_requests
                if req.origin in self._departed
            )
            for peer in sorted(stale):
                self._dispatch(automaton.evict_child(peer))
            hint = self._token_hints.get(automaton.lock_id)
            if (
                automaton.parent in self._departed
                and not automaton.has_token
                and automaton.lock_id not in self._orphans
                and automaton.lock_id not in self._probes
                # A hint naming ourselves is our own regeneration claim
                # riding out its settle window; re-probing now would
                # supersede it with a fresh epoch every beat and the
                # token would never actually regenerate.
                and (hint is None or hint[0] != self.node_id)
            ):
                self._start_orphan(automaton.lock_id, automaton.parent)

    def _failure_tick(self) -> None:
        now = self._scheduler.now()
        fresh = self.detector.check(now)
        self.timers.arm(
            "failure-tick", self.config.heartbeat_interval, self._failure_tick
        )
        for peer in fresh:
            self._on_suspect(peer)
        self._lease_tick(now)

    # -- request retransmission -----------------------------------------

    def _arm_retry(
        self, lock_id: LockId, interval: Optional[float] = None
    ) -> None:
        """(Re)start *lock_id*'s retry chain; its backoff interval rides
        in the timer."""

        if interval is None:
            interval = self.config.retry_base
        self.timers.arm(
            ("retry", lock_id), interval, self._retry_fire, lock_id, interval
        )

    def _retry_fire(self, lock_id: LockId, interval: float) -> None:
        automaton = self.lockspace.automaton(lock_id)
        if automaton.pending_mode is LockMode.NONE:
            return  # Granted in the meantime; retries lazily cancel.
        out: List[Envelope] = []
        hint = self._token_hints.get(lock_id)
        if (
            interval >= self.config.retry_cap
            and hint is not None
            and hint[0] != self.node_id
            and hint[0] != automaton.parent
            and not automaton.has_token
        ):
            # Backoff is capped: plain retransmission has failed
            # repeatedly, so the request may be circling a stale
            # subtree (fault-era reattachments can momentarily cross
            # into a parent cycle that no longer reaches the token).
            # Escape by re-homing under the last announced token
            # lineage — the hint need not name the current holder,
            # only a node whose parent chain reaches it, which every
            # past token node's does.
            out = automaton.reattach(hint[0], detach=True)
        if not out:
            out = automaton.retransmit_pending()
        self.app_retransmits += len(out)
        if self.obs is not None:
            for _ in out:
                self.obs.fault("app-retransmit", self.node_id)
        if self.tracer is not None and out:
            # Re-sent requests join their chain as annotated hops.
            with self.tracer.annotated(self.node_id, "retransmit"):
                self._dispatch(out)
        else:
            self._dispatch(out)
        self._arm_retry(lock_id, min(interval * 2, self.config.retry_cap))

    # ------------------------------------------------------------------
    # Failure handling.
    # ------------------------------------------------------------------

    def _on_suspect(self, peer: NodeId) -> None:
        now = self._scheduler.now()
        self.suspect_log.append((now, peer))
        if self.obs is not None:
            self.obs.fault("suspect", peer)
            # The heartbeat detector declared the peer dead: surface it
            # through the same hook real transports use for lost links.
            self.obs.peer_lost(peer, "heartbeat timeout")
        self.channel.stop_peer(peer)
        for automaton in list(self.lockspace.automata()):
            lock_id = automaton.lock_id
            if self.remote_leases.holder_active(lock_id, peer, now):
                # The suspect still owns an unexpired lease on this lock:
                # its hold stays pinned until the lease runs out (it may
                # be a false suspicion, and even a real death must wait
                # for the holder's self-fence deadline before the hold is
                # broken).  The eviction resolves at the peer's next
                # heartbeat (kept, if advertised) or at lease revocation.
                self._deferred_evictions.setdefault(peer, set()).add(lock_id)
            else:
                self._dispatch(automaton.evict_child(peer))
            if automaton.parent == peer:
                self._start_orphan(lock_id, peer)

    def _regenerator(self) -> NodeId:
        """The live node that coordinates regeneration: the highest id
        among surviving members (every survivor computes the same one,
        modulo detector disagreement — the protocol tolerates several
        coordinators, see docs/FAULTS.md)."""

        live = [
            n
            for n in self.membership
            if n == self.node_id or not self.detector.is_suspected(n)
        ]
        return max(live)

    def _start_orphan(self, lock_id: LockId, suspect: NodeId) -> None:
        coordinator = self._regenerator()
        if coordinator == self.node_id:
            self._ensure_probe(lock_id, reporter=self.node_id)
            return
        self._orphans[lock_id] = suspect
        self._orphan_fire(lock_id)

    def _orphan_fire(self, lock_id: LockId) -> None:
        coordinator = self._regenerator()
        if coordinator == self.node_id:
            # Everyone above us died; we are the coordinator now.
            self._close_orphan(lock_id)
            self._ensure_probe(lock_id, reporter=self.node_id)
            return
        automaton = self.lockspace.automaton(lock_id)
        report = OrphanReport(
            lock_id=lock_id,
            sender=self.node_id,
            suspect=self._orphans[lock_id],
            epoch=automaton.token_epoch,
        )
        self.timers.arm(
            ("orphan", lock_id),
            self.config.orphan_interval,
            self._orphan_fire,
            lock_id,
        )
        self._raw_send(coordinator, report)

    def _close_orphan(self, lock_id: LockId) -> bool:
        """Stop reporting *lock_id* orphaned; whether it was."""

        self.timers.cancel(("orphan", lock_id))
        return self._orphans.pop(lock_id, None) is not None

    def _close_probe(self, lock_id: LockId) -> Optional[Dict[str, object]]:
        """End the probe of *lock_id*, deadline included; the probe."""

        self.timers.cancel(("probe", lock_id))
        return self._probes.pop(lock_id, None)

    # -- coordinator side -------------------------------------------------

    def _ensure_probe(
        self, lock_id: LockId, reporter: NodeId, epoch: int = 0
    ) -> None:
        automaton = self.lockspace.automaton(lock_id)
        if automaton.has_token:
            if automaton.custody_pending:
                # Restored custody is still being confirmed; announcing
                # ourselves now could spread a stale placement.  The
                # reporter keeps re-sending until the rejoin resolves and
                # broadcasts the settled placement.
                return
            # No mystery: the token is right here.  Tell the reporter.
            self._announce(
                lock_id, self.node_id, automaton.token_epoch, {reporter}
            )
            return
        probe = self._probes.get(lock_id)
        if probe is not None:
            probe["reporters"].add(reporter)  # type: ignore[union-attr]
            probe["epoch"] = max(probe["epoch"], epoch)  # type: ignore
            return
        self._probes[lock_id] = {
            "epoch": max(epoch, automaton.token_epoch),
            "reporters": {reporter},
        }
        message = TokenProbe(lock_id=lock_id, sender=self.node_id)
        peers = [
            n
            for n in self.membership
            if n != self.node_id and not self.detector.is_suspected(n)
        ]
        for peer in peers:
            self._raw_send(peer, message)
        self.timers.arm(
            ("probe", lock_id),
            self.config.probe_timeout,
            self._probe_deadline,
            lock_id,
        )

    def _on_orphan_report(self, msg: OrphanReport) -> None:
        self._ensure_probe(msg.lock_id, reporter=msg.sender, epoch=msg.epoch)

    def _on_token_probe(self, msg: TokenProbe) -> None:
        automaton = self.lockspace.automaton(msg.lock_id)
        if automaton.has_token:
            self._raw_send(
                msg.sender,
                TokenAck(
                    lock_id=msg.lock_id,
                    sender=self.node_id,
                    epoch=automaton.token_epoch,
                ),
            )

    def _on_token_ack(self, msg: TokenAck) -> None:
        rejoin = self._rejoin.get(msg.lock_id)
        if rejoin is not None:
            if msg.sender != self.node_id and msg.epoch >= rejoin:
                # A live token of at least our restored epoch answers
                # from elsewhere: our custody is stale.  Demote under it.
                # (``>=`` also covers a handed-off token whose transfer
                # was journalled but raced the crash.)
                self._resolve_rejoin(
                    msg.lock_id,
                    confirmed=False,
                    epoch=msg.epoch,
                    holder=msg.sender,
                )
            return
        probe = self._close_probe(msg.lock_id)
        if probe is None:
            return
        self._announce(
            msg.lock_id, msg.sender, msg.epoch, probe["reporters"]
        )

    def _probe_deadline(self, lock_id: LockId) -> None:
        probe = self._probes[lock_id]
        automaton = self.lockspace.automaton(lock_id)
        if automaton.has_token:
            del self._probes[lock_id]
            self._announce(
                lock_id, self.node_id, automaton.token_epoch,
                probe["reporters"],
            )
            return
        live = [
            n
            for n in self.membership
            if n == self.node_id or not self.detector.is_suspected(n)
        ]
        if len(live) * 2 <= len(self.membership):
            # No quorum: we may be the minority side of a partition,
            # with a perfectly healthy token across the cut.
            # Regenerating here would fork the lock space, so keep
            # probing instead — liveness resumes when the fabric
            # heals (or enough members return).
            message = TokenProbe(lock_id=lock_id, sender=self.node_id)
            for peer in live:
                if peer != self.node_id:
                    self._raw_send(peer, message)
            self.timers.arm(
                ("probe", lock_id),
                self.config.probe_timeout,
                self._probe_deadline,
                lock_id,
            )
            return
        del self._probes[lock_id]
        # Nobody answered and a majority is visible: the token died
        # with the crash.  Claim the next epoch (the automaton's
        # floor may have moved past the probe's snapshot, so climb
        # above both) and broadcast the claim — survivors reattach
        # under us and re-assert their owned modes.  Only after the
        # settle window do we actually serve from the regenerated
        # token: granting from an empty copyset before the
        # re-assertions land could violate Rule 1.
        epoch = max(int(probe["epoch"]), automaton.token_epoch) + 1
        self._announce(lock_id, self.node_id, epoch, broadcast=True)
        self.timers.arm(
            ("regen", lock_id),
            self.config.regen_settle,
            self._regen_fire,
            lock_id,
            epoch,
        )

    def _regen_fire(self, lock_id: LockId, epoch: int) -> None:
        if self._token_hints.get(lock_id) != (self.node_id, epoch):
            return  # A higher claim (or a real token) won meanwhile.
        automaton = self.lockspace.automaton(lock_id)
        if automaton.has_token:
            return  # The token surfaced after all (e.g. adopted).
        horizon = self._lease_regen_horizon(lock_id)
        if horizon is not None:
            # A suspected holder still owns an unexpired lease on
            # this lock: regenerating now could grant over its hold.
            # Wait out the latest such lease (plus the revoke margin
            # already folded into the horizon) and try again.
            self.timers.arm(
                ("regen", lock_id),
                horizon - self._scheduler.now() + 0.1,
                self._regen_fire,
                lock_id,
                epoch,
            )
            return
        out = automaton.regenerate_token(epoch)
        self.regenerations.append(
            {"lock": lock_id, "epoch": epoch, "node": self.node_id}
        )
        if self.tracer is not None and out:
            # Grants flowing from a regenerated token are annotated
            # so traces show which hops recovery manufactured.
            with self.tracer.annotated(self.node_id, "regen"):
                self._dispatch(out)
        else:
            self._dispatch(out)
        # Re-broadcast: anyone who missed the claim (or joined the
        # quorum since) learns the final placement.
        self._announce(lock_id, self.node_id, epoch, broadcast=True)

    def _announce(
        self,
        lock_id: LockId,
        holder: NodeId,
        epoch: int,
        reporters: Optional[Set[NodeId]] = None,
        broadcast: bool = False,
    ) -> None:
        """Tell orphans (and, after a regeneration, everyone) where the
        token now lives."""

        self._note_hint(lock_id, holder, epoch)
        message = ReparentMessage(
            lock_id=lock_id, sender=self.node_id, parent=holder, epoch=epoch
        )
        if broadcast:
            targets = {
                n
                for n in self.membership
                if not self.detector.is_suspected(n)
            }
        else:
            targets = set(reporters or ())
        targets.discard(self.node_id)
        for target in sorted(targets):
            self._raw_send(target, message)
        # Apply locally too (the coordinator may itself be an orphan).
        self._apply_reparent(lock_id, holder, epoch)

    # -- orphan side -------------------------------------------------------

    def _note_hint(self, lock_id: LockId, holder: NodeId, epoch: int) -> None:
        """Record a token placement, keeping the most recent lineage.

        Ordered by ``(epoch, holder)`` so stale announcements replayed
        across a healed partition cannot roll a hint backwards.
        """

        known = self._token_hints.get(lock_id)
        if known is None or (epoch, holder) >= (known[1], known[0]):
            self._token_hints[lock_id] = (holder, epoch)

    def _on_reparent(self, msg: ReparentMessage) -> None:
        self._note_hint(msg.lock_id, msg.parent, msg.epoch)
        probe = self._probes.get(msg.lock_id)
        if probe is not None and msg.epoch >= int(probe["epoch"]):
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
        rejoin = self._rejoin.get(lock_id)
        if rejoin is not None:
            if holder != self.node_id and epoch >= rejoin:
                # A placement of at least our restored epoch names
                # someone else: fence immediately.
                self._resolve_rejoin(
                    lock_id, confirmed=False, epoch=epoch, holder=holder
                )
            # A hint naming *us* is a peer replaying our own pre-crash
            # placement; agreement still waits for the settle deadline —
            # a higher-epoch regeneration may be one hop behind it.
            return
        automaton = self.lockspace.automaton(lock_id)
        self._dispatch(automaton.observe_epoch(epoch, holder))
        needs_home = self._close_orphan(lock_id) or (
            automaton.parent is not None
            and (
                # A departed parent is as gone as a suspected one, but
                # gracefully removed peers never trip the failure
                # detector — without this, a node that coordinated its
                # own orphan probe (no _orphans entry) would keep its
                # stale hint at the leaver forever.
                self.detector.is_suspected(automaton.parent)
                or automaton.parent in self._departed
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
            self._dispatch(automaton.reattach(holder))
            if automaton.pending_mode is not LockMode.NONE:
                self._arm_retry(lock_id)

    # ------------------------------------------------------------------
    # Membership: view changes, join, graceful leave, decommission
    # (see repro.membership and docs/MEMBERSHIP.md).
    # ------------------------------------------------------------------

    @property
    def view(self) -> MembershipView:
        """The currently installed membership view."""

        return MembershipView(self.view_epoch, tuple(self.membership))

    @property
    def departing(self) -> bool:
        """True while this node is gracefully leaving the cluster."""

        return self._departing

    @property
    def has_left(self) -> bool:
        """True once this node's own removal view has been installed."""

        return self._departure is not None and self.node_id not in self.membership

    def adopt_view(self, payload: Dict[str, object]) -> None:
        """Adopt a journalled view (durable restart, before :meth:`start`).

        Restarting into the *bootstrap* member list would resurrect
        departed nodes and mis-size every quorum; the WAL records each
        installed view so a restarted node rejoins the current one.
        """

        with self._mutex:
            epoch = int(payload.get("epoch", 0))
            if epoch < self.view_epoch:
                return
            members = sorted(int(n) for n in payload.get("members", ()))
            self.view_epoch = epoch
            if members:
                self.membership = members
            self._departed = {int(n) for n in payload.get("departed", ())}
            if epoch:
                self._view_record = {
                    "epoch": epoch,
                    "members": tuple(self.membership),
                    "joined": (),
                    "removed": tuple(sorted(self._departed)),
                    "forced": False,
                }
            now = self._scheduler.now()
            tracked = set(self.detector.live_peers()) | self.detector.suspected
            for peer in self.membership:
                if peer != self.node_id:
                    self.detector.add_peer(peer, now)
            for peer in tracked:
                if peer not in self.membership:
                    self.detector.forget(peer)

    def propose_view(
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

        with self._mutex:
            joined = tuple(sorted(set(joined)))
            removed = tuple(sorted(set(removed)))
            members = tuple(
                sorted((set(self.membership) | set(joined)) - set(removed))
            )
            base_epoch = self.view_epoch
            if self._view_pending is not None:
                base_epoch = max(
                    base_epoch, int(self._view_pending["epoch"])
                )
            epoch = base_epoch + 1
            pending = self._view_pending = {
                "epoch": epoch,
                "members": members,
                "joined": joined,
                "removed": removed,
                "forced": bool(forced),
                "acks": {self.node_id},
                "base": tuple(self.membership),
            }
            self.views_proposed += 1
            self._view_promised = max(
                self._view_promised, (epoch, self.node_id)
            )
            if self.obs is not None:
                self.obs.fault("view-propose", epoch)
            self._send_proposal(pending)
            self._maybe_install_pending()
            if self._view_pending is pending:
                self._arm_view_propose()
            return epoch

    def _send_proposal(self, pending: Dict[str, object]) -> None:
        message = ViewProposal(
            lock_id="",
            sender=self.node_id,
            epoch=int(pending["epoch"]),
            members=tuple(pending["members"]),
            joined=tuple(pending["joined"]),
            removed=tuple(pending["removed"]),
            forced=bool(pending["forced"]),
        )
        for peer in pending["base"]:
            if (
                peer == self.node_id
                or peer in pending["acks"]
                or peer in self._departed
                or self.detector.is_suspected(peer)
            ):
                continue
            self._raw_send(peer, message)

    def _arm_view_propose(self) -> None:
        self.timers.arm(
            "view-propose", self.config.orphan_interval,
            self._view_propose_fire,
        )

    def _view_propose_fire(self) -> None:
        self._send_proposal(self._view_pending)
        self._arm_view_propose()

    def _maybe_install_pending(self) -> None:
        pending = self._view_pending
        if pending is None:
            return
        quorum = len(pending["base"]) // 2 + 1
        if len(pending["acks"]) < quorum:
            return
        self._view_pending = None
        self.timers.cancel("view-propose")
        epoch = int(pending["epoch"])
        members = tuple(pending["members"])
        joined = tuple(pending["joined"])
        removed = tuple(pending["removed"])
        forced = bool(pending["forced"])
        self._install_view(
            epoch, members, joined=joined, removed=removed, forced=forced
        )
        message = ViewInstall(
            lock_id="",
            sender=self.node_id,
            epoch=epoch,
            members=members,
            joined=joined,
            removed=removed,
            forced=forced,
        )
        for peer in sorted(set(pending["base"]) | set(members)):
            if peer != self.node_id:
                self._raw_send(peer, message)
        for peer in joined:
            if peer != self.node_id:
                self._state_transfer(peer)

    def _on_view_proposal(self, msg: ViewProposal) -> None:
        if msg.epoch <= self.view_epoch:
            # Stale proposer (it missed an install): catch it up instead.
            self._send_view_install(msg.sender)
            return
        if (msg.epoch, msg.sender) < self._view_promised:
            return
        self._view_promised = (msg.epoch, msg.sender)
        self._raw_send(
            msg.sender,
            ViewAck(lock_id="", sender=self.node_id, epoch=msg.epoch),
        )

    def _on_view_ack(self, msg: ViewAck) -> None:
        pending = self._view_pending
        if pending is None or msg.epoch != int(pending["epoch"]):
            return
        pending["acks"].add(msg.sender)
        self._maybe_install_pending()

    def _on_view_install(self, msg: ViewInstall) -> None:
        self._install_view(
            msg.epoch,
            msg.members,
            joined=msg.joined,
            removed=msg.removed,
            forced=msg.forced,
        )

    def _install_view(
        self,
        epoch: int,
        members: Iterable[NodeId],
        joined: Iterable[NodeId] = (),
        removed: Iterable[NodeId] = (),
        forced: bool = False,
    ) -> bool:
        """Install a view if *epoch* beats the current one.  Idempotent.

        Effective joins/removals are computed against the *local* member
        list (not just the install's announced delta), so a node catching
        up across several missed views still excises everyone who left.
        """

        epoch = int(epoch)
        if epoch <= self.view_epoch:
            return False
        old = set(self.membership)
        new = sorted({int(n) for n in members})
        joined_eff = sorted((set(new) - old) | set(joined))
        removed_eff = sorted((old - set(new)) | set(removed))
        self.view_epoch = epoch
        self.membership = new
        self._view_record = {
            "epoch": epoch,
            "members": tuple(new),
            "joined": tuple(joined_eff),
            "removed": tuple(removed_eff),
            "forced": bool(forced),
        }
        now = self._scheduler.now()
        self.view_installs.append(dict(self._view_record, at=now))
        if (
            self._view_pending is not None
            and int(self._view_pending["epoch"]) <= epoch
        ):
            self._view_pending = None
            self.timers.cancel("view-propose")
        for peer in joined_eff:
            if peer == self.node_id:
                continue
            self._departed.discard(peer)
            self.detector.add_peer(peer, now)
        for peer in removed_eff:
            if peer == self.node_id:
                continue  # Our own removal: the departure driver owns it.
            self._excise(peer, forced)
        if self.obs is not None:
            self.obs.fault("view-install", epoch)
        if self.journal is not None:
            self.journal.record_view(self.view_journal_payload())
        return True

    def view_journal_payload(self) -> Optional[Dict[str, object]]:
        """The installed view as a journal payload (None at bootstrap)."""

        if self.view_epoch == 0:
            return None
        return {
            "epoch": self.view_epoch,
            "members": list(self.membership),
            "departed": sorted(self._departed),
        }

    def _excise(self, peer: NodeId, forced: bool) -> None:
        """Purge every trace of a removed member.

        For a graceful leaver this is a safety net (it drained before
        proposing its removal; at most a final in-flight release is
        made redundant here).  For a forced decommission it is the
        excision itself: fence out the dead node's leases, evict its
        copyset entries and re-home anything still attached under it
        through the ordinary orphan/regeneration flow.
        """

        self._departed.add(peer)
        self.detector.forget(peer)
        self.channel.stop_peer(peer)
        self._peer_boots.pop(peer, None)
        self._deferred_evictions.pop(peer, None)
        for lock_id in [
            lock
            for lock, (holder, _epoch) in self._token_hints.items()
            if holder == peer
        ]:
            del self._token_hints[lock_id]
        if forced:
            for lease in [
                lease
                for lease in self.remote_leases.leases()
                if lease.holder == peer
            ]:
                self.remote_leases.drop(lease.lock, lease.holder)
                self.leases_revoked += 1
                self.lockspace.automaton(lease.lock).raise_fence_floor(
                    lease.token
                )
                if self.obs is not None:
                    self.obs.fault("lease-revoke", peer)
                if self.forced_release_hook is not None:
                    self.forced_release_hook(peer, lease.lock)
        for automaton in list(self.lockspace.automata()):
            self._dispatch(automaton.evict_child(peer))
            if automaton.parent == peer and not automaton.has_token:
                self._rehome_after_excision(automaton, peer, forced)

    def _rehome_after_excision(
        self, automaton, peer: NodeId, forced: bool
    ) -> None:
        # Orphan → probe → announce for both flavours of removal.  For a
        # forced decommission the dead node may have taken the token with
        # it, so the quorum-gated regeneration flow settles custody (with
        # the fence-floor bumps its announce carries).  For a graceful
        # leaver this only re-homes a routing hint — but we deliberately
        # do NOT shortcut through the local token hint or an arbitrary
        # live member: ordinary custody transfers never broadcast, so
        # hints go stale fast under load, and two excised orphans
        # guessing at each other's position can weave a mutual
        # parent-hint cycle that deadlocks both (each queues the other's
        # request while requesting through it).  The probe finds the live
        # holder, whose epoch-stamped announce is acyclic by
        # construction.
        self._start_orphan(automaton.lock_id, peer)

    def _send_view_install(self, dest: NodeId) -> None:
        record = self._view_record
        if record is None or dest in self._departed:
            return
        self._raw_send(
            dest,
            ViewInstall(
                lock_id="",
                sender=self.node_id,
                epoch=int(record["epoch"]),
                members=tuple(record["members"]),
                joined=tuple(record["joined"]),
                removed=tuple(record["removed"]),
                forced=bool(record["forced"]),
            ),
        )
        if dest in self.membership:
            self._state_transfer(dest)

    def _state_transfer(self, dest: NodeId) -> None:
        hints = tuple(
            sorted(
                (lock_id, holder, epoch)
                for lock_id, (holder, epoch) in self._token_hints.items()
                if holder not in self._departed
            )
        )
        floors = tuple(
            sorted(
                (automaton.lock_id, automaton.fence_floor)
                for automaton in self.lockspace.automata()
                if automaton.fence_floor
            )
        )
        self._raw_send(
            dest,
            StateTransfer(
                lock_id="",
                sender=self.node_id,
                view_epoch=self.view_epoch,
                members=tuple(self.membership),
                hints=hints,
                floors=floors,
            ),
        )

    def _on_state_transfer(self, msg: StateTransfer) -> None:
        self._install_view(msg.view_epoch, msg.members)
        for lock_id, holder, epoch in msg.hints:
            if holder in self._departed:
                continue
            self._note_hint(str(lock_id), int(holder), int(epoch))
        for lock_id, floor in msg.floors:
            self.lockspace.automaton(str(lock_id)).raise_fence_floor(
                int(floor)
            )

    # -- join --------------------------------------------------------------

    def request_join(self, sponsor: NodeId) -> None:
        """Joiner side: ask *sponsor* to admit us, re-sending until a view
        (which will include us) is installed here."""

        with self._mutex:
            if self._sponsor is not None:
                return
            self._sponsor = sponsor
            self._join_fire()

    def _join_fire(self) -> None:
        if self._view_record is not None:
            self._sponsor = None  # Admitted (any install counts).
            return
        self._raw_send(
            self._sponsor, JoinRequest(lock_id="", sender=self.node_id)
        )
        self.timers.arm("join", self.config.orphan_interval, self._join_fire)

    def _on_join_request(self, msg: JoinRequest) -> None:
        joiner = msg.sender
        if joiner in self.membership:
            # Already admitted; the install/state transfer may have been
            # lost on the wire — re-send both.
            self._send_view_install(joiner)
            return
        pending = self._view_pending
        if pending is not None and joiner in pending["joined"]:
            return  # Admission already in flight.
        self.propose_view(joined=(joiner,))

    # -- graceful leave ----------------------------------------------------

    def begin_leave(self, successor: Optional[NodeId] = None) -> NodeId:
        """Start draining this node out of the cluster.

        Abandons its pending requests, force-releases any residual holds,
        then (driven by the leave tick) hands off token custody to
        *successor*, migrates its copyset children, and finally proposes
        a view without itself.  Returns the chosen successor.  The caller
        should keep the node's transport running until :attr:`has_left`.
        """

        with self._mutex:
            if self._departure is not None:
                return int(self._departure["successor"])
            candidates = [
                n
                for n in self.membership
                if n != self.node_id
                and n not in self._departed
                and not self.detector.is_suspected(n)
            ]
            if successor is None:
                if not candidates:
                    raise ValueError(
                        f"node {self.node_id} has no live successor to "
                        f"drain to"
                    )
                successor = min(candidates)
            self._departing = True
            self._departure = {"successor": successor}
            if self.obs is not None:
                self.obs.fault("leave-begin", self.node_id)
            for automaton in list(self.lockspace.automata()):
                self._dispatch(automaton.begin_departure())
                self._dispatch_replay(automaton.abandon_pending())
                snap = automaton.snapshot()
                for mode_name, count in snap.held:
                    mode = LockMode(str(mode_name))
                    for _ in range(int(count)):
                        self._dispatch(
                            self.lockspace.release(automaton.lock_id, mode)
                        )
                if snap.held and self.forced_release_hook is not None:
                    self.forced_release_hook(self.node_id, automaton.lock_id)
            self.own_leases.clear()
            self.sessions.expire_all()
            self._journal_sessions()
            self._leave_tick()
            return successor

    def departure_complete(self) -> bool:
        """True when nothing is left to drain: no token custody, no
        copyset children, no holds, no pending request, empty queues."""

        with self._mutex:
            for automaton in list(self.lockspace.automata()):
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
        dep = self._departure
        if self.node_id not in self.membership:
            # Our removal view is installed: departure complete.
            if self.obs is not None:
                self.obs.fault("departed", self.node_id)
            return
        successor = int(dep["successor"])
        if (
            successor in self._departed
            or successor not in self.membership
            or self.detector.is_suspected(successor)
        ):
            candidates = [
                n
                for n in self.membership
                if n != self.node_id
                and n not in self._departed
                and not self.detector.is_suspected(n)
            ]
            if candidates:
                successor = min(candidates)
                dep["successor"] = successor
        for automaton in list(self.lockspace.automata()):
            lock_id = automaton.lock_id
            if automaton.has_token:
                # Custody first; children migrate only after the
                # successor's announce demotes us under it.
                self._raw_send(
                    successor,
                    HandoffMessage(
                        lock_id=lock_id,
                        sender=self.node_id,
                        epoch=automaton.token_epoch,
                    ),
                )
                continue
            parent = automaton.parent
            if parent is None or parent in self._departed:
                continue
            for child, mode in sorted(automaton.children.items()):
                if child == parent or child in self._departed:
                    continue
                # Adopt-then-reparent, in that order: the new parent
                # records the child's mode before the child is told
                # to detach from us, so the subtree is accounted for
                # somewhere under every message ordering.
                self._raw_send(
                    parent,
                    ChildMigrate(
                        lock_id=lock_id,
                        sender=self.node_id,
                        child=child,
                        mode=mode,
                        seq=automaton.child_attachment_seq(child),
                    ),
                )
                self._raw_send(
                    child,
                    ReparentMessage(
                        lock_id=lock_id,
                        sender=self.node_id,
                        parent=parent,
                        epoch=automaton.token_epoch,
                    ),
                )
        if self.departure_complete() and self._view_pending is None:
            self.propose_view(removed=(self.node_id,))
        self.timers.arm("leave", self.config.orphan_interval, self._leave_tick)

    def _on_handoff(self, msg: HandoffMessage) -> None:
        if self._departing:
            return  # Leaving ourselves; cannot take custody.
        automaton = self.lockspace.automaton(msg.lock_id)
        if automaton.has_token:
            if not automaton.custody_pending:
                # Re-sent offer after we already took custody: re-announce
                # so the leaver's demotion cannot be lost.
                self._announce(
                    msg.lock_id,
                    self.node_id,
                    automaton.token_epoch,
                    broadcast=True,
                )
            return
        if msg.lock_id in self._rejoin:
            return  # Custody already being settled.
        epoch = max(int(msg.epoch), automaton.token_epoch) + 1
        self._dispatch_replay(automaton.accept_handoff(epoch))
        self.handoffs_accepted += 1
        if self.obs is not None:
            self.obs.fault("handoff-accept", msg.sender)
        # Same settle handshake as a durable custody restore: probe for
        # contrary evidence, confirm after the window, then serve.  The
        # broadcast announce is what demotes the departing holder and
        # re-homes everyone's hints meanwhile.
        self._begin_rejoin(msg.lock_id, epoch)
        self._announce(msg.lock_id, self.node_id, epoch, broadcast=True)

    def _on_child_migrate(self, msg: ChildMigrate) -> None:
        if msg.child in self._departed:
            return
        automaton = self.lockspace.automaton(msg.lock_id)
        self._dispatch(
            automaton.adopt_child(msg.child, msg.mode, int(msg.seq))
        )
        self.children_adopted += 1

    # -- decommission ------------------------------------------------------

    def decommission(self, node: NodeId) -> int:
        """Force-remove a (dead) *node* from the view; returns the epoch.

        Must be called on a live member.  The installed view fences the
        dead node's leases, evicts its copyset entries everywhere and
        routes any orphans through the ordinary regeneration flow.
        """

        with self._mutex:
            if node == self.node_id:
                raise ValueError("a node cannot decommission itself")
            if node not in self.membership:
                return self.view_epoch  # Already excised.
            if self.obs is not None:
                self.obs.fault("decommission", node)
            return self.propose_view(removed=(node,), forced=True)
