"""Failure detection and recovery coordination for one node.

A :class:`RecoveryManager` wraps a node's
:class:`~repro.core.lockspace.LockSpace` (running with
``ProtocolOptions(recovery=True)``) and supplies everything the paper's
protocol assumes away.  It is a kernel, holding what every layer shares,
and the layers it composes (DESIGN.md §7 has the ownership table and
the calls between them).  The kernel:

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
* the node's mutex, its :class:`~repro.faults.scheduler.Timers`, the
  raw fabric send (:meth:`~RecoveryManager.send` to one peer,
  :meth:`~RecoveryManager.broadcast` to many: one fabric call each), the
  event funnel, and the one definition of "the members I do not
  suspect" and of "a majority of them".

The layers, each owning its state: **token regeneration**
(:mod:`repro.faults.regeneration`), **custody** of a restored or
handed-off token (:mod:`repro.faults.custody`), **leases**
(:mod:`repro.leases.layer`) and **membership**
(:mod:`repro.membership.layer`).

The manager is transport-agnostic: it needs only a scheduler
(``now``/``call_later``) and its fabric's ``send`` with this node bound
as the sender, so the same class runs under the simulator and the
threaded/TCP runtimes.
"""

from __future__ import annotations

import collections
import dataclasses
import threading
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from ..core.lockspace import LockSpace
from ..core.messages import Envelope, LockId, Message, NodeId
from ..core.modes import LockMode
from ..leases.layer import LeaseLayer
from ..membership.layer import MembershipLayer
from ..obs.sink import ObsSink
from .channel import ReliableChannel
from .custody import Custody
from .detector import HeartbeatDetector
from .messages import HeartbeatMessage, SessionAck, SessionMessage
from .regeneration import Regeneration
from .scheduler import Timers

#: The fabric's ``send`` with the sender bound: takes a batch of envelopes.
TransportSend = Callable[[List[Envelope]], None]
#: One row of the kernel's handler table.
_Route = Tuple[Callable[[Message], object], bool]


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
    #: How long a restored or handed-off token stays custody-fenced
    #: (queueing instead of granting) while probes and replayed hints
    #: settle whether its epoch is still current; quorum-gated, like
    #: ``regen_settle`` (see :mod:`repro.faults.custody`).
    rejoin_settle: float = 1.5
    #: :class:`~repro.leases.LeaseConfig` ``duration``: how long a hold's
    #: lease lives past its last renewal, and the quorum silence after
    #: which a holder self-fences.  Must exceed the longest partition any
    #: plan expects to *heal* (the canned ``partition`` plan severs for
    #: 5 s), or a healed node spuriously revokes itself.
    lease_duration: float = 6.0
    #: ``LeaseConfig.revoke_margin``: the extra slack peers wait past a
    #: lease deadline before revoking, so that the forced release always
    #: happens holder-side first.
    lease_revoke_margin: float = 1.5


class RecoveryManager:
    """Per-node recovery engine: the kernel and the layers it composes."""

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
        self.config = config
        self.obs = obs
        self.boot = boot
        #: The scheduler's clock.
        self.now: Callable[[], float] = scheduler.now
        self._transport_send = transport_send
        #: Guards the whole stack (re-entrant: a layer's public call may
        #: arrive from inside a handler or from the host).
        self.mutex = threading.RLock()
        #: Every timer of this node but the channel's (which stops with
        #: it); running from :meth:`start` to :meth:`stop`.
        self.timers = Timers(scheduler, self.mutex, running=False)
        #: Durability journal of this node, attached by the cluster
        #: wiring when persistence is enabled (see repro.persist).
        self.journal = None
        #: Causal tracer, adopted from the obs sink when it has one; the
        #: session channel shares it so frames join request chains.
        self.tracer = getattr(obs, "tracer", None)
        self.membership = MembershipLayer(self, membership)
        self.detector = HeartbeatDetector(
            self._peers(), config.suspect_timeout, now=scheduler.now()
        )
        self.channel = ReliableChannel(
            node_id,
            scheduler,
            send=self.send,
            deliver=self._deliver,
            retry_base=config.channel_retry_base,
            retry_cap=config.channel_retry_cap,
            boot=boot,
            mutex=self.mutex,
        )
        self.channel.tracer = self.tracer
        self.channel.obs = obs
        self.regeneration = Regeneration(self)
        self.custody = Custody(self)
        self.leases = LeaseLayer(self)
        #: Message type → (bound handler, whether ``message.boot`` is the
        #: sender's incarnation), from the layers' ``@handles`` methods.
        #: (The heartbeat goes through the kernel's newest-beat guard.)
        self._handlers: Dict[type, _Route] = {
            member.handled_type: (getattr(layer, name), False)
            for layer in (self.regeneration, self.custody, self.membership)
            for name, member in vars(type(layer)).items()
            if hasattr(member, "handled_type")
        }
        self._handlers[HeartbeatMessage] = (self._on_heartbeat, True)
        self._handlers[SessionMessage] = (self.channel.handle, True)
        # A SessionAck's ``boot`` echoes the acked FRAME's boot (the
        # receiver of this ack), not the ack sender's incarnation.
        # Reading it as the sender's would make every peer acking a
        # restarted node's frames look freshly restarted itself, and
        # the resulting stop_peer would wipe a live in-stream mid
        # conversation — deadlocking the pair (the sender believes
        # its early frames are acked and never resends; the wiped
        # receiver waits for seq 0 forever).
        self._handlers[SessionAck] = (self.channel.handle, False)
        #: Any other type is a raw (unsessioned) protocol message;
        #: tolerated so the manager can also front a plain reliable
        #: transport.
        self._unsessioned: _Route = (
            lambda message: self._deliver(message.sender, message),
            False,
        )
        #: Latest boot incarnation seen per peer (restart detection).
        self._peer_boots: Dict[NodeId, int] = {}
        #: Heartbeats sent by this incarnation (the next beat's ``seq``).
        self._beats_sent = 0
        #: Newest heartbeat ``(boot, seq)`` applied per peer.
        self._newest_beat: Dict[NodeId, Tuple[int, int]] = {}
        #: How often each recovery event happened here (see :meth:`event`).
        self.events: "collections.Counter[str]" = collections.Counter()
        self.suspect_log: List[Tuple[float, NodeId]] = []

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        """Begin heartbeating and failure checking."""

        with self.mutex:
            if self.timers.running:
                return
            self.timers.running = True
            self.channel.start()
            self._heartbeat_tick()
            self.timers.arm(
                "failure-tick",
                self.config.heartbeat_interval,
                self._failure_tick,
            )

    def stop(self) -> None:
        """Stop all periodic activity (crash simulation / shutdown)."""

        with self.mutex:
            self.timers.running = False
            self.timers.clear()
            self.channel.stop()

    # -- what every layer shares -------------------------------------------

    def _peers(self) -> List[NodeId]:
        return [n for n in self.membership.view.members if n != self.node_id]

    def live(self) -> List[NodeId]:
        """The members this node does not suspect, itself included."""

        suspected = self.detector.is_suspected
        return [
            n
            for n in self.membership.view.members
            if n == self.node_id or not suspected(n)
        ]

    def live_peers(self) -> List[NodeId]:
        """:meth:`live` without this node."""

        return [n for n in self.live() if n != self.node_id]

    def has_quorum(self) -> bool:
        """Whether this node and the peers it does not suspect are a
        majority of the installed view."""

        return len(self.live()) >= self.membership.view.quorum()

    def send(self, dest: NodeId, message: Message) -> None:
        """Raw fabric send.  Recovery coordination rides it directly: it
        is idempotent, re-sent by its originators, and must keep flowing
        while streams to a dead peer are torn down."""

        self._transport_send([Envelope(dest, message)])

    def broadcast(self, dests: Iterable[NodeId], message: Message) -> None:
        """:meth:`send` *message* to every one of *dests*, in order, as
        one fabric call."""

        self._transport_send([Envelope(dest, message) for dest in dests])

    def dispatch(
        self, envelopes: List[Envelope], note: Optional[str] = None
    ) -> None:
        """Ship automaton output: protocol messages, sessioned.

        With a *note* (``"replay"``, ``"retransmit"``, ``"regen"``) the
        hops join their causal chains annotated, so traces show which
        ones recovery manufactured.
        """

        if note is not None and self.tracer is not None and envelopes:
            with self.tracer.annotated(self.node_id, note):
                self.dispatch(envelopes)
            return
        for envelope in envelopes:
            self.channel.send(envelope.dest, envelope.message)

    def control(self, kind: type, **fields: object) -> Message:
        """A node-scoped control message (``lock_id=""``) from this node."""

        return kind(lock_id="", sender=self.node_id, **fields)

    def event(self, kind: str, subject: object) -> None:
        """Count one recovery event and report it to the observer."""

        self.events[kind] += 1
        if self.obs is not None:
            self.obs.fault(kind, subject)

    def resend_later(self, key: object, fn: Callable, *args: object) -> None:
        """Arm *key* one ``orphan_interval`` out: the cadence at which
        every layer re-sends what the raw fabric may have lost."""

        self.timers.arm(key, self.config.orphan_interval, fn, *args)

    def forget_peer(self, peer: NodeId) -> None:
        """Stop tracking *peer*, tear its streams down (it left the view)."""

        self.detector.forget(peer)
        self.channel.stop_peer(peer)
        self._peer_boots.pop(peer, None)
        self._newest_beat.pop(peer, None)

    @property
    def app_retransmits(self) -> int:
        """Requests re-sent by the retry timer."""

        return self.events["app-retransmit"]

    @property
    def lease_renewals_sent(self) -> int:
        """Lease rows advertised in heartbeats (``leases.renewals_sent``)."""

        return self.leases.renewals_sent

    # -- introspection -----------------------------------------------------

    def health_snapshot(self):
        """Read-only :class:`repro.obs.live.RecoveryHealth` of this node.

        Captured under the manager mutex so the channel backlog, detector
        verdicts and token hints are mutually consistent.
        """

        from ..obs.live import RecoveryHealth

        with self.mutex:
            durability = None
            if self.journal is not None:
                stats = self.journal.stats()
                report = self.custody.report
                durability = {
                    "appends": int(stats.get("appends", 0)),
                    "compactions": int(stats.get("compactions", 0)),
                    "locks_restored": int(report.get("locks_restored", 0)),
                    "holds_reclaimed": int(report.get("holds_reclaimed", 0)),
                    "custody_confirmed": self.events["custody-confirmed"],
                    "custody_fenced": self.events["custody-fenced"],
                }
            view = self.membership.view
            return RecoveryHealth(
                boot=self.boot,
                suspected=tuple(sorted(self.detector.suspected)),
                live_peers=tuple(self.detector.live_peers()),
                channel_backlog=self.channel.backlog(),
                channel_retransmits=self.channel.retransmits,
                app_retransmits=self.app_retransmits,
                token_hints=self.regeneration.placements(),
                custody_pending=tuple(self.custody.pending()),
                durability=durability,
                leases=self.leases.health(),
                view_epoch=view.epoch,
                view_members=view.members,
            )

    # -- application API ---------------------------------------------------

    def request(
        self,
        lock_id: LockId,
        mode: LockMode,
        ctx: object = None,
        priority: int = 0,
    ) -> None:
        """Request *lock_id* in *mode* with retransmission armed."""

        with self.mutex:
            self.dispatch(self.lockspace.request(lock_id, mode, ctx, priority))
            if (
                self.lockspace.automaton(lock_id).pending_mode
                is not LockMode.NONE
            ):
                self.arm_retry(lock_id)

    def release(self, lock_id: LockId, mode: LockMode) -> None:
        """Release one hold of *mode* on *lock_id*.

        A no-op on a lease-fenced node: the fence already force-released
        every hold (and reported it through ``leases.forced_release``), so
        a late application release has nothing left to release.
        """

        with self.mutex:
            if self.leases.fenced:
                return
            self.dispatch(self.lockspace.release(lock_id, mode))
            self.leases.note_release(lock_id, mode)

    def arm_retry(
        self, lock_id: LockId, interval: Optional[float] = None
    ) -> None:
        """(Re)start the retry chain of this node's pending request for
        *lock_id*; the chain's backoff interval rides in its timer."""

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
        hint = self.regeneration.hints.get(lock_id)
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
        for _ in out:
            self.event("app-retransmit", self.node_id)
        # Re-sent requests join their chain as annotated hops.
        self.dispatch(out, "retransmit")
        self.arm_retry(lock_id, min(interval * 2, self.config.retry_cap))

    # -- inbound -----------------------------------------------------------

    def handle(self, message: Message) -> List[Envelope]:
        """Transport sink: consume one message off the fabric.

        Fits the simulator's handler signature by always returning ``[]``
        — replies go out through :attr:`channel`/raw sends instead, so
        they too enjoy reliability and fault injection.
        """

        with self.mutex:
            if not self.timers.running:
                return []
            sender = message.sender
            if sender in self.membership.departed:
                # Stale traffic from an excised node: its token (if any)
                # was handed off or regenerated and its copyset entries
                # evicted at view install; nothing it says is current.
                return []
            handler, has_boot = self._handlers.get(
                type(message), self._unsessioned
            )
            self._note_life(sender, message.boot if has_boot else None)
            handler(message)
        return []

    def _on_heartbeat(self, beat: HeartbeatMessage) -> None:
        """Apply a beat's content unless a newer one already was.

        Heartbeats are datagrams: the fabric may deliver one late, twice
        or after its successor.  Any of them proved the sender alive
        (:meth:`handle` already noted that); but its lease rows and view
        epoch are the sender's state *at send time*, and applying an old
        set over a newer one re-adds a released lease to the mirror,
        resolves a deferred eviction against holds older than the
        suspicion, and re-sends a view the peer has since installed.
        """

        stamp = (beat.boot, beat.seq)
        if stamp > self._newest_beat.get(beat.sender, (-1, -1)):
            self._newest_beat[beat.sender] = stamp
            self.leases.on_heartbeat(beat)

    def _deliver(self, peer: NodeId, payload: Message) -> None:
        """In-order payload from the channel: run the automaton."""

        with self.mutex:
            self.dispatch(self.lockspace.handle(payload))

    def _note_life(self, peer: NodeId, boot: Optional[int]) -> None:
        revived = self.detector.beat(peer, self.now())
        restarted = False
        if boot is not None and peer != self.node_id:
            known = self._peer_boots.get(peer, 0)
            if boot > known:
                self._peer_boots[peer] = boot
                restarted = known > 0 or boot > 0
        if revived:
            self.event("unsuspect", peer)
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
            self.dispatch(reassert, "replay")
        if restarted or revived:
            self.regeneration.replay_hints(peer)

    # -- the two periodic ticks --------------------------------------------

    def _heartbeat_tick(self) -> None:
        self.membership.sweep_departed()
        self._beats_sent += 1
        beat = self.control(
            HeartbeatMessage,
            boot=self.boot,
            leases=self.leases.advertise(self.now(), len(self.live_peers())),
            view_epoch=self.membership.view.epoch,
            seq=self._beats_sent,
        )
        self.timers.arm(
            "heartbeat-tick",
            self.config.heartbeat_interval,
            self._heartbeat_tick,
        )
        self.broadcast(self._peers(), beat)

    def _failure_tick(self) -> None:
        now = self.now()
        fresh = self.detector.check(now)
        self.timers.arm(
            "failure-tick", self.config.heartbeat_interval, self._failure_tick
        )
        for peer in fresh:
            self._on_suspect(peer)
        self.leases.tick(now)

    def _on_suspect(self, peer: NodeId) -> None:
        now = self.now()
        self.suspect_log.append((now, peer))
        self.event("suspect", peer)
        if self.obs is not None:
            # The heartbeat detector declared the peer dead: surface it
            # through the same hook real transports use for lost links.
            self.obs.peer_lost(peer, "heartbeat timeout")
        self.channel.stop_peer(peer)
        for automaton in list(self.lockspace.automata()):
            if not self.leases.pins(automaton.lock_id, peer, now):
                self.dispatch(automaton.evict_child(peer))
            if automaton.parent == peer:
                self.regeneration.start_orphan(automaton.lock_id, peer)
