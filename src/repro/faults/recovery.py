"""Failure detection and recovery coordination for one node.

A :class:`RecoveryManager` wraps a node's
:class:`~repro.core.lockspace.LockSpace` (running with
``ProtocolOptions(recovery=True)``) and supplies everything the paper's
protocol assumes away.  It is a kernel, holding what every layer shares,
and the layers it composes (DESIGN.md §7 has the ownership table and
the calls between them).  The kernel:

* **Reliable FIFO transport** — protocol messages travel through a
  :class:`~repro.faults.channel.ReliableChannel` (per-pair sequence
  numbers, cumulative acks, an RTT-learning retransmit timer), so drops,
  duplicates and reordering on the fabric are invisible to the automata.
* **Failure detection** — periodic heartbeats feed a
  :class:`~repro.faults.detector.HeartbeatDetector`; any inbound traffic
  counts as life.  Each tick beats only the peers a live operation of
  this node depends on (the parent and the copyset children of each
  lock it holds, awaits or queues a request on, and the peers its
  channel awaits an ack from), the peers whose newest beat said they
  depend on it, the peers its channel owes an ack, and a rotating slice
  of the rest — every peer, when the beat carries lease rows — so that
  every peer still hears from every peer once per
  :attr:`~RecoveryManager.sweep` ticks.  Each beat declares its gap
  (the ticks until the next beat to that peer), and the detector waits
  that much longer before suspecting: a crash on an idle path is
  suspected after ``suspect_timeout + (sweep - 1) * heartbeat_interval``
  (4.5 s at the defaults), a dependency's after ``suspect_timeout``
  once acknowledged (:meth:`~RecoveryManager._promise`).  The heartbeat
  to a peer also carries the ack the channel owes that peer.
* **Re-sending at loss events, never on a timer** — a request dies
  only with a peer or a stream to it: when a peer is suspected,
  restarts or leaves the view, the node re-sends its pending requests,
  and parks the foreign ones the lost stream carried until a
  placement, a claim or the peer's return mends their path
  (:meth:`~RecoveryManager.park`).
* the node's mutex, its :class:`~repro.faults.scheduler.Timers`, the
  raw fabric send (:meth:`~RecoveryManager.send` to one peer,
  :meth:`~RecoveryManager.broadcast` to many: one fabric call each), the
  event funnel and the one definition of "the members I do not
  suspect".

The layers, each owning its state: **tokens** — orphans, probes and
fences, from a lost parent to a settled placement
(:mod:`repro.faults.tokens`) — **leases** (:mod:`repro.leases.layer`)
and **membership** (:mod:`repro.membership.layer`).

The manager is transport-agnostic: it needs only a scheduler
(``now``/``call_later``) and its fabric's ``send`` with this node bound
as the sender, so the same class runs under the simulator and the
threaded/TCP runtimes.
"""

from __future__ import annotations

import collections
import dataclasses
import heapq
import threading
from typing import Callable, Dict, Iterable, List, Optional, Set, Tuple

from ..core.lockspace import LockSpace
from ..core.messages import Envelope, LockId, Message, NodeId, RequestMessage
from ..core.modes import LockMode
from ..leases.layer import LeaseLayer
from ..membership.layer import MembershipLayer
from ..obs.sink import ObsSink
from .channel import ReliableChannel
from .detector import HeartbeatDetector
from .messages import HeartbeatMessage, SessionAck, SessionMessage
from .scheduler import Timers
from .tokens import TokenLayer

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
    #: Inert, read by nothing: requests are re-sent at loss events, not
    #: on a timer.  Kept only because the benchmark ledger still passes
    #: them; its next revision deletes them with its ``retry_base_s``.
    retry_base: float = 0.75
    retry_cap: float = 5.0
    #: Bounds of the channel's retransmission timeout, which learns each
    #: stream's round trip in between.  Acks ride heartbeats, so the cap
    #: must exceed ``heartbeat_interval`` or the timer could never wait
    #: for one.
    channel_retry_base: float = 0.25
    channel_retry_cap: float = 2.0
    #: Orphans re-send their OrphanReport at this period until reparented;
    #: a coordinator re-sends its token probe, and a fenced holder its
    #: custody probe, to the silent members as often.
    orphan_interval: float = 0.5
    #: How long restored copyset entries stay *provisional* after a
    #: durable restart: unless a child re-confirms one, it expires after
    #: this window.  (A restored token serves on answers alone; see
    #: repro.faults.tokens.)
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

    def __post_init__(self) -> None:
        if self.channel_retry_cap <= self.heartbeat_interval:
            raise ValueError(
                f"channel_retry_cap ({self.channel_retry_cap}) must exceed "
                f"heartbeat_interval ({self.heartbeat_interval}): session "
                "acks ride heartbeats"
            )


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
        #: Causal tracer, adopted from the obs sink when it has one:
        #: :meth:`dispatch` marks recovery's re-sends on it.
        self.tracer = getattr(obs, "tracer", None)
        self.membership = MembershipLayer(self, membership)
        #: Every peer gets a beat at least once per this many ticks: the
        #: suspect timeout keeps a peer's suspicion of this node within
        #: ``sweep - 1`` intervals of a beat per tick, half a lease
        #: duration keeps lease contact (``_quorum_heard``) with margin.
        self.sweep = max(
            1,
            int(
                min(config.suspect_timeout, config.lease_duration / 2)
                / config.heartbeat_interval
            ),
        )
        self.detector = HeartbeatDetector(
            self._peers(),
            config.suspect_timeout,
            now=scheduler.now(),
            interval=config.heartbeat_interval,
            gap=self.sweep,
        )
        #: Per peer this node depends on, the ``(boot, seq)`` of the beat
        #: that opened the dependency (:meth:`_promise`).
        self._opened: Dict[NodeId, Tuple[int, int]] = {}
        #: Peers whose newest beat said they depend on this node.
        self._wanters: Set[NodeId] = set()
        #: Whether the last beat carried lease rows (the next one goes to
        #: every peer too, so that every mirror drops them).
        self._advertised = False
        self.channel = ReliableChannel(
            node_id,
            scheduler,
            send=self.send,
            deliver=self._deliver,
            rto_min=config.channel_retry_base,
            rto_max=config.channel_retry_cap,
            boot=boot,
            mutex=self.mutex,
        )
        self.channel.obs = obs
        self.tokens = TokenLayer(self)
        self.leases = LeaseLayer(self)
        #: Message type → (bound handler, whether ``message.boot`` is the
        #: sender's incarnation), from the layers' ``@handles`` methods.
        #: (The heartbeat goes through the kernel's newest-beat guard.)
        self._handlers: Dict[type, _Route] = {
            member.handled_type: (getattr(layer, name), False)
            for layer in (self.tokens, self.membership)
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
        #: The simulated fabric keeping quiet beats (:meth:`absorb`), if any.
        self.fabric = None
        #: Heap of the beats kept: ``(time, seq, beat)``.
        self._kept: List[Tuple[float, int, HeartbeatMessage]] = []
        #: Foreign requests held back, in arrival order (:meth:`park`).
        self._parked: List[RequestMessage] = []
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
            if self.boot:
                # Journaled locks are rejoined by now; any other lock
                # this incarnation creates may hold a re-born token.
                self.lockspace.on_birth = self.tokens.born
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
            self.release_beats()
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
            dest, message = envelope.dest, envelope.message
            if type(message) is RequestMessage and self.cut_off(dest):
                self.park([message], dest)
            else:
                self.channel.send(dest, message)

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

        self.release_beats(peer)
        self.detector.forget(peer)
        self.park(self.channel.stop_peer(peer), peer)
        self._peer_boots.pop(peer, None)
        self._newest_beat.pop(peer, None)
        self._opened.pop(peer, None)
        self._wanters.discard(peer)
        self.resend_pending()

    @property
    def app_retransmits(self) -> int:
        """This node's own requests re-sent after a loss event."""

        return self.events["app-retransmit"]

    # -- requests a lost peer may have taken with it ----------------------

    def cut_off(self, peer: Optional[NodeId]) -> bool:
        """Whether *peer* is suspected or has left the view."""

        return self.detector.is_suspected(peer) or (
            peer in self.membership.departed
        )

    def park(self, messages: Iterable[Message], peer: NodeId) -> None:
        """Hold the foreign requests among *messages*, which went (or
        were going) to the lost *peer*, until :meth:`unpark`; a lock
        whose parent *peer* is re-homes, which re-forwards our own."""

        for message in messages:
            if type(message) is not RequestMessage:
                continue
            if message.origin != self.node_id:
                self._parked.append(message)
            if self.lockspace.automaton(message.lock_id).parent == peer:
                self.tokens.rehome(message.lock_id, peer)

    def unpark(self) -> None:
        """Handle every parked request again, as if just arrived: a
        placement, a claim or a peer's return may have mended its path
        (one whose path is still cut parks again)."""

        parked, self._parked = self._parked, []
        for message in parked:
            self.dispatch(self.lockspace.handle(message), "retransmit")

    def resend_pending(self, parent: Optional[NodeId] = None) -> None:
        """Re-send this node's pending requests (with *parent*, those of
        the locks under it): a lost peer may have queued one anywhere on
        its path.  A lock under a cut-off parent waits for its re-home."""

        for automaton in list(self.lockspace.automata()):
            if (
                automaton.pending_mode is LockMode.NONE
                or automaton.has_token
                or automaton.parent is None
                or parent not in (None, automaton.parent)
                or self.cut_off(automaton.parent)
            ):
                continue
            out = automaton.retransmit_pending()
            for _ in out:
                self.event("app-retransmit", self.node_id)
            # Re-sent requests join their chain as annotated hops.
            self.dispatch(out, "retransmit")

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
                report = self.tokens.report
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
                token_hints=self.tokens.placements(),
                custody_pending=tuple(self.tokens.pending()),
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
        """Request *lock_id* in *mode*."""

        with self.mutex:
            self.dispatch(self.lockspace.request(lock_id, mode, ctx, priority))

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

    def absorb(self, beat: Message, slot: Tuple[float, int]) -> bool:
        """Keep *beat*, due in *slot*, off the fabric if its delivery could
        only note life (docs/FAULTS.md); False hands it back.

        Takes no mutex: only the simulator's fabric calls it
        (:meth:`~repro.sim.network.Network.attach_absorber`), on the
        engine's one thread, which every other entry of this node's
        runs on too.
        """

        if type(beat) is not HeartbeatMessage or beat.ack >= 0 or beat.leases:
            return False
        sender, leases = beat.sender, self.leases
        if not (
            beat.want is (sender in self._wanters)
            and self._promise(beat) == self.detector.gap(sender)
            and self.timers.running
            and beat.view_epoch >= self.membership.view.epoch
            and beat.boot == self._peer_boots.get(sender, 0)
            and sender not in self.membership.departed
            and not self.detector.is_suspected(sender)
            and not leases.defers(sender)
            and not leases.remote.mirrors(sender)
        ):
            return False
        heapq.heappush(self._kept, (slot[0], slot[1], beat))
        return True

    def _fold(self) -> None:
        """Apply each kept beat whose slot has passed, as its delivery
        would: one pass, noting life and the sender's newest beat."""

        kept = self._kept
        if not kept:
            return
        cursor, beat_at = self.fabric.cursor(), self.detector.beat
        while kept and kept[0] < cursor:
            time, _seq, beat = heapq.heappop(kept)
            beat_at(beat.sender, time)
            self._newer_beat(beat)

    def release_beats(self, peer: Optional[NodeId] = None) -> None:
        """Fold the kept beats that arrived and hand the rest (from *peer*,
        or all) back to their slots: what made them quiet is changing."""

        with self.mutex:
            self._fold()
            keep: List[Tuple[float, int, HeartbeatMessage]] = []
            back: List[Tuple[float, int, HeartbeatMessage]] = []
            for kept in self._kept:
                (back if peer in (None, kept[2].sender) else keep).append(kept)
            heapq.heapify(keep)
            self._kept = keep
            for time, seq, beat in back:
                self.fabric.redeliver((time, seq), self.node_id, beat)

    def _newer_beat(self, beat: HeartbeatMessage) -> bool:
        """Whether *beat* is the newest yet from its sender (and note it)."""

        stamp = (beat.boot, beat.seq)
        if stamp > self._newest_beat.get(beat.sender, (-1, -1)):
            self._newest_beat[beat.sender] = stamp
            return True
        return False

    def _on_heartbeat(self, beat: HeartbeatMessage) -> None:
        """Apply a beat's ack, and its content unless a newer one
        already was.

        Heartbeats are datagrams: the fabric may deliver one late, twice
        or after its successor.  Any of them proved the sender alive
        (:meth:`handle` already noted that); but its lease rows and view
        epoch are the sender's state *at send time*, and applying an old
        set over a newer one re-adds a released lease to the mirror,
        resolves a deferred eviction against holds older than the
        suspicion, and re-sends a view the peer has since installed.
        """

        self._fold()
        # The ack it carries for our stream first: cumulative and
        # boot-checked, it is harmless late or twice — but not from a
        # previous incarnation of the sender, whose streams are gone.
        if beat.ack >= 0 and beat.boot == self._peer_boots.get(beat.sender, 0):
            self.channel.on_ack(
                beat.sender, beat.ack, beat.ack_boot, beat.ack_stream
            )
        if self._newer_beat(beat):
            self._heed(beat)
            self.leases.on_heartbeat(beat)

    def _promise(self, beat: HeartbeatMessage) -> int:
        """The gap this node holds *beat*'s sender to: a per-tick promise
        counts only while this node depends on the sender, and only if it
        echoes the beat that opened the dependency or a later one."""

        opened = self._opened.get(beat.sender)
        if beat.gap == 1 and (opened is None or beat.echo < opened):
            return self.sweep
        return beat.gap

    def _heed(self, beat: HeartbeatMessage) -> None:
        """Adopt the newest beat's promise and whether its sender depends
        on this node; the beats kept under the old values go back."""

        sender, gap = beat.sender, self._promise(beat)
        if gap == self.detector.gap(sender) and beat.want is (
            sender in self._wanters
        ):
            return
        self.release_beats(sender)
        self.detector.promise(sender, gap)
        (self._wanters.add if beat.want else self._wanters.discard)(sender)

    def _deliver(self, peer: NodeId, payload: Message) -> None:
        """In-order payload from the channel: run the automaton (or the
        layer of a control message riding a stream: a custody answer)."""

        with self.mutex:
            route = self._handlers.get(type(payload))
            if route is not None:
                route[0](payload)
                return
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
            self.park(self.channel.stop_peer(peer), peer)
            # What the old incarnation promised or wanted died with it.
            self._wanters.discard(peer)
            self.detector.promise(peer, self.sweep)
            # The old incarnation's copyset entries go as a suspect's
            # would: a hold it re-asserts, or a lease its next beat
            # advertises, records it again.
            self._evict(peer, only_children=True)
            # Re-assert our subtrees toward the restarted node: a durable
            # restart holds our copyset entry only *provisionally* until
            # a live announcement confirms it, and a blank restart must
            # relearn it from scratch.
            reassert: List[Envelope] = []
            for automaton in list(self.lockspace.automata()):
                if automaton.parent == peer:
                    reassert.extend(automaton.reassert_owned())
            self.dispatch(reassert, "replay")
            # Whatever its old incarnation had queued died with it.
            self.resend_pending()
        if revived and not restarted:
            # Our stream to it was given up at the suspicion.
            self.resend_pending(peer)
        if restarted or revived:
            self.tokens.replay_hints(peer)
            self.unpark()

    # -- the two periodic ticks --------------------------------------------

    def dependencies(self) -> Set[NodeId]:
        """The peers a live operation of this node needs: the parent and
        the copyset children of each lock it holds a mode of, awaits a
        request on or queues one at, and every peer its channel awaits
        an ack from.  An idle lock's path is heard through the sweep."""

        deps = self.channel.awaiting()
        for automaton in self.lockspace.automata():
            if not (
                automaton.held_modes
                or automaton.queued_requests
                or automaton.pending_mode is not LockMode.NONE
            ):
                continue
            parent = automaton.parent
            if parent is not None:
                deps.add(parent)
            deps.update(automaton.children)
        deps.discard(self.node_id)
        return deps

    def _heartbeat_tick(self) -> None:
        self.membership.sweep_departed()
        self._beats_sent += 1
        seq, sweep = self._beats_sent, self.sweep
        peers = self._peers()
        fanout = len(peers) - len(self.detector.suspected.intersection(peers))
        rows = self.leases.advertise(self.now(), fanout)
        every, self._advertised = rows or self._advertised, bool(rows)
        self.timers.arm(
            "heartbeat-tick",
            self.config.heartbeat_interval,
            self._heartbeat_tick,
        )
        acks = self.channel.take_acks()
        deps, opened = self.dependencies(), self._opened
        closed = [p for p in opened if p not in deps]
        for peer in closed:
            # Not any more: the promise stops counting, and this tick says so.
            del opened[peer]
            self.detector.promise(peer, sweep)
        for peer in deps:
            opened.setdefault(peer, (self.boot, seq))
        # Off its slice of the sweep a peer is beaten if this node
        # depends on it, just stopped or owes it an ack; every peer is,
        # for a sweep after a start and while lease rows ride.
        loud = set(peers) if seq <= sweep or every else deps.union(closed)
        loud.update(acks)
        # One beat per (want, gap) the tick declares; a peer that wants
        # it (echoed) or is owed an ack gets its own copy.  One fabric
        # call either way.
        beats: Dict[Tuple[bool, int], HeartbeatMessage] = {}
        envelopes: List[Envelope] = []
        for peer in peers:
            own: Dict[str, object] = {}
            if peer in self._wanters:
                gap, own["echo"] = 1, self._newest_beat[peer]
            elif (seq + peer) % sweep and peer not in loud:
                continue
            else:
                # Its slice of the sweep comes round within the gap.
                gap = sweep
            want = peer in deps
            beat = beats.get((want, gap))
            if beat is None:
                beat = beats[want, gap] = self.control(
                    HeartbeatMessage,
                    boot=self.boot,
                    leases=rows,
                    view_epoch=self.membership.view.epoch,
                    seq=seq,
                    want=want,
                    gap=gap,
                )
            if peer in acks:
                own["ack"], own["ack_boot"], own["ack_stream"] = acks[peer]
            if own:
                beat = dataclasses.replace(beat, **own)
            envelopes.append(Envelope(peer, beat))
        self._transport_send(envelopes)

    def _failure_tick(self) -> None:
        now = self.now()
        self._fold()
        fresh = self.detector.check(now)
        self.timers.arm(
            "failure-tick", self.config.heartbeat_interval, self._failure_tick
        )
        for peer in fresh:
            self._on_suspect(peer)
        self.leases.tick(now)

    def _on_suspect(self, peer: NodeId) -> None:
        self.release_beats(peer)
        self.suspect_log.append((self.now(), peer))
        self.event("suspect", peer)
        if self.obs is not None:
            # The heartbeat detector declared the peer dead: surface it
            # through the same hook real transports use for lost links.
            self.obs.peer_lost(peer, "heartbeat timeout")
        # Its stream to us stays: it may not suspect us, and keeps
        # numbering where it was.
        lost = self.channel.abandon(peer)
        for automaton in self._evict(peer):
            if automaton.parent == peer:
                self.tokens.start_orphan(automaton.lock_id, peer)
        self.park(lost, peer)
        self.resend_pending()

    def _evict(self, peer: NodeId, only_children: bool = False) -> List:
        """Evict *peer* from every lock's copyset — where
        *only_children*, only where it is a child — unless its lease
        pins it there (``leases.pins`` defers that eviction to its next
        beat).  Returns the automata, in order."""

        now = self.now()
        automata = list(self.lockspace.automata())
        for automaton in automata:
            if only_children and peer not in automaton.children:
                continue
            if not self.leases.pins(automaton.lock_id, peer, now):
                self.dispatch(automaton.evict_child(peer))
        return automata
