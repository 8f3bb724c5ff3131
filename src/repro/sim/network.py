"""Point-to-point network model for the simulated cluster.

Models the paper's testbed: a switched full-duplex LAN where disjoint
point-to-point transfers proceed in parallel, with per-message latency
randomized around a mean of 150 ms.  Every message draws its own latency.

The fabric offers two delivery classes, and a message type states which
one it needs where it gets its label
(:func:`repro.core.messages.declare_messages`, read here as
``message.ordered``):

* the **ordered stream** — FIFO per ordered node pair (as a TCP
  connection is): a message never arrives before an earlier ordered
  message of the same pair, so a fast draw behind a slow one waits for
  it.  The hierarchical protocol's freeze propagation relies on this,
  and every protocol, session-frame, recovery and membership type is on
  it;
* the **datagram** — arrives on its own draw, neither waiting for the
  pair's earlier messages nor holding back its later ones.  Heartbeats
  and session acks are datagrams: they are idempotent and carry their
  own staleness guard (docs/FAULTS.md), they are over 90 % of a
  fault-free stack's messages, and on the stream their slow draws were
  what protocol frames queued behind.  It is the branch a fault plan's
  ``reorder`` decision has always taken.

A fabric that keeps every message in order (the threaded and TCP
transports) implements both: FIFO is one legal schedule of unordered.

The network is where *all* protocol messages cross, so it is the one
place a wire message is accounted for: each send is counted once, by
message type (:attr:`Network.messages_sent`, ``messages_by_plane`` and
``messages_by_label`` are views of that count), reported once to an
optional :class:`~repro.obs.sink.ObsSink` and recorded by its tracer,
whose hop id the scheduled delivery carries beside the message.

Fault injection is first-class: pass a
:class:`~repro.faults.plan.FaultPlan` as ``faults`` and the network
drops, duplicates, delays and reorders matching messages, severs
partitioned pairs, and silences crashed nodes (:meth:`crash` /
:meth:`restart`).  The injector draws from its own seeded RNG stream, so
a run with ``faults=None`` (or an empty plan) is bit-identical to one on
the pre-fault network — the latency RNG never sees a fault-layer draw.

A node may keep datagrams off the event heap (:meth:`Network.
attach_absorber`); each send still reserves its delivery's slot, where
:meth:`Network.redeliver` puts one handed back.  Traced or not, the
path is the same: the datagrams kept are heartbeats, which the tracer
never records.
"""

from __future__ import annotations

import collections
import random
from functools import partial
from typing import Callable, Dict, List, Optional, Set, Tuple

from ..core.messages import MESSAGE_TYPE_LABELS, Envelope, NodeId, fault_label
from ..errors import SimulationError, unroutable
from .engine import Simulator
from .rng import Distribution, Exponential

#: Handler installed per node: takes a message, returns reply envelopes.
MessageHandler = Callable[[object], List[Envelope]]


class Network:
    """Delivers envelopes between registered nodes with random latency."""

    def __init__(
        self,
        sim: Simulator,
        latency: Optional[Distribution] = None,
        rng: Optional[random.Random] = None,
        faults: Optional["FaultPlan"] = None,
        obs: Optional["ObsSink"] = None,
    ) -> None:
        self._sim = sim
        self._latency = latency if latency is not None else Exponential(0.150)
        self._rng = rng if rng is not None else random.Random(0)
        #: Optional observability sink: every counted send is reported as
        #: one ``message(sender, dest, fault_label(message))``.
        self.obs = obs
        #: Optional causal tracer (:mod:`repro.obs.tracing`), adopted from
        #: ``obs`` when it has one.  Records every counted envelope as a
        #: hop; draws no randomness and sends nothing, so traced runs
        #: stay bit-identical to untraced ones.
        self.tracer = getattr(obs, "tracer", None)
        self._injector = None
        if faults is not None and not faults.is_empty():
            from ..faults.plan import FaultInjector

            self._injector = FaultInjector(faults)
        self._handlers: Dict[NodeId, MessageHandler] = {}
        self._absorbers: Dict[NodeId, Callable] = {}
        #: Whether a kept datagram's slot has passed (``Simulator.cursor``).
        self.cursor = sim.cursor
        self._crashed: Set[NodeId] = set()
        self._last_arrival: Dict[Tuple[NodeId, NodeId], float] = {}
        self._sent_by_type: Dict[type, int] = collections.defaultdict(int)
        self._messages_dropped = 0

    @property
    def messages_dropped(self) -> int:
        """Messages discarded by faults (rules, partitions, crashed nodes)."""

        return self._messages_dropped

    @property
    def messages_sent(self) -> int:
        """Total envelopes transmitted."""

        return sum(self._sent_by_type.values())

    @property
    def messages_by_plane(self) -> Dict[str, int]:
        """:attr:`messages_sent`, by the plane each type declared."""

        return self._sent_by(lambda cls: cls.plane)

    @property
    def messages_by_label(self) -> Dict[str, int]:
        """:attr:`messages_sent`, by the label each type declared (the
        Figure 7 legend, ``MESSAGE_TYPE_LABELS``)."""

        return self._sent_by(MESSAGE_TYPE_LABELS.__getitem__)

    def _sent_by(self, key: Callable[[type], str]) -> Dict[str, int]:
        counts: Dict[str, int] = collections.Counter()
        for cls, sent in self._sent_by_type.items():
            counts[key(cls)] += sent
        return dict(sorted(counts.items()))

    @property
    def mean_latency(self) -> float:
        """Mean of the configured latency distribution (seconds)."""

        return self._latency.mean

    @property
    def injector(self):
        """The active :class:`~repro.faults.plan.FaultInjector`, if any."""

        return self._injector

    def register(self, node_id: NodeId, handler: MessageHandler) -> None:
        """Attach *handler* as the message sink of *node_id*."""

        if node_id in self._handlers:
            raise SimulationError(f"node {node_id} registered twice")
        self._handlers[node_id] = handler

    def attach_absorber(self, node_id: NodeId, absorb: Callable) -> None:
        """Offer each datagram to *node_id* first to ``absorb(message,
        slot)``, which returns whether it kept it."""

        self._absorbers[node_id] = absorb

    def redeliver(self, slot: Tuple[float, int], dest: NodeId, message) -> None:
        """Deliver a datagram *dest* kept after all, in its own *slot*."""

        envelope = Envelope(dest, message)
        self._sim.put(slot, partial(self._deliver, message.sender, envelope))

    # -- crash / restart ---------------------------------------------------

    def crash(self, node_id: NodeId) -> None:
        """Silence *node_id*: nothing in, nothing out, in-flight included."""

        if node_id not in self._handlers:
            raise SimulationError(f"cannot crash unregistered node {node_id}")
        self._crashed.add(node_id)

    def restart(
        self, node_id: NodeId, handler: Optional[MessageHandler] = None
    ) -> None:
        """Bring *node_id* back, optionally with a fresh handler (the
        restarted node's new, blank protocol state)."""

        if node_id not in self._crashed:
            raise SimulationError(f"node {node_id} is not crashed")
        self._crashed.discard(node_id)
        if handler is not None:
            self._handlers[node_id] = handler

    def is_crashed(self, node_id: NodeId) -> bool:
        """Whether *node_id* is currently crashed."""

        return node_id in self._crashed

    # -- transmission ------------------------------------------------------

    def send(self, sender: NodeId, envelopes: List[Envelope]) -> None:
        """Transmit *envelopes* from *sender*, each in the delivery class
        its type declared: FIFO per destination pair, or a datagram.

        Producers batch (a heartbeat tick is one call): what cannot
        change inside a call is read once, the rest per envelope.  A
        destination that is not registered, or is *sender* itself, is a
        :class:`SimulationError`: no protocol talks to its own node.
        """

        sim = self._sim
        now, schedule, reserve, put = (
            sim.now, sim.schedule, sim.reserve, sim.put,
        )
        deliver = self._deliver
        handlers, crashed, floors, by_type, absorbers = (
            self._handlers, self._crashed, self._last_arrival,
            self._sent_by_type, self._absorbers,
        )
        sender_down = sender in crashed
        injector, obs, tracer = self._injector, self.obs, self.tracer
        sample, rng = self._latency.sample, self._rng
        if tracer is not None:
            tracer.handed(sender, envelopes)
        hop = None
        for envelope in envelopes:
            dest, message = envelope
            if dest == sender or dest not in handlers:
                raise unroutable(sender, dest)
            if sender_down or dest in crashed:
                self._messages_dropped += 1
                continue
            copies, extra, reorder = 1, 0.0, False
            if injector is not None:
                decision = injector.decide(now, sender, dest, message)
                if decision.drop:
                    self._messages_dropped += 1
                    continue
                copies, extra, reorder = (
                    decision.copies, decision.extra_delay, decision.reorder
                )
            by_type[type(message)] += 1
            if obs is not None:
                obs.message(sender, dest, fault_label(message))
            if tracer is not None:
                hop = tracer.outbound(sender, envelope)
            datagram = not message.ordered or reorder
            absorb = absorbers.get(dest) if datagram else None
            if datagram and copies == 1:
                # The common datagram (a heartbeat): one draw, no floor.
                # ``arrival - now`` then ``now + delay`` in the engine: the
                # float round trip is part of every seeded trajectory.
                arrival = now + (sample(rng) + extra)
                if absorb is None:
                    schedule(
                        arrival - now, partial(deliver, sender, envelope, hop)
                    )
                else:
                    slot = reserve(arrival - now)
                    if not absorb(message, slot):
                        put(slot, partial(deliver, sender, envelope, hop))
                continue
            key = (sender, dest)
            for _ in range(copies):
                arrival = now + (sample(rng) + extra)
                if not datagram:
                    # FIFO per ordered pair: never deliver before an earlier
                    # ordered message.  A datagram — an unordered type, or a
                    # fault-plan reorder — deliberately skips the floor (and
                    # does not raise it for its successors).
                    floor = floors.get(key, 0.0)
                    if arrival < floor:
                        arrival = floor
                    floors[key] = arrival
                if absorb is None:
                    schedule(
                        arrival - now, partial(deliver, sender, envelope, hop)
                    )
                    continue
                slot = reserve(arrival - now)
                if not absorb(message, slot):
                    put(slot, partial(deliver, sender, envelope, hop))

    def _deliver(
        self,
        sender: NodeId,
        envelope: Envelope,
        hop: Optional[Tuple[str, int]] = None,
    ) -> None:
        dest, message = envelope
        if dest in self._crashed:
            # Crashed while the message was in flight.
            self._messages_dropped += 1
            return
        handler = self._handlers[dest]
        tracer = self.tracer
        if tracer is None:
            replies = handler(message)
            if replies:
                self.send(dest, replies)
            return
        tracer.deliver(dest, message, hop, handler, self.send)
