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

The network is where *all* protocol messages cross, so it doubles as the
measurement point: an optional observer is invoked for every send with the
sender, destination and message, and the metrics collector plugs in there.

Fault injection is first-class: pass a
:class:`~repro.faults.plan.FaultPlan` as ``faults`` and the network
drops, duplicates, delays and reorders matching messages, severs
partitioned pairs, and silences crashed nodes (:meth:`crash` /
:meth:`restart`).  The injector draws from its own seeded RNG stream, so
a run with ``faults=None`` (or an empty plan) is bit-identical to one on
the pre-fault network — the latency RNG never sees a fault-layer draw.
"""

from __future__ import annotations

import collections
import random
from functools import partial
from typing import Callable, Dict, List, Optional, Set, Tuple

from ..core.messages import Envelope, NodeId
from ..errors import SimulationError
from .engine import Simulator
from .rng import Distribution, Exponential

#: Handler installed per node: takes a message, returns reply envelopes.
MessageHandler = Callable[[object], List[Envelope]]

#: Observer signature: ``(sender, dest, message)``.
MessageObserver = Callable[[NodeId, NodeId, object], None]


class Network:
    """Delivers envelopes between registered nodes with random latency."""

    def __init__(
        self,
        sim: Simulator,
        latency: Optional[Distribution] = None,
        rng: Optional[random.Random] = None,
        observer: Optional[MessageObserver] = None,
        faults: Optional["FaultPlan"] = None,
        tracer: Optional["MessageTracer"] = None,
    ) -> None:
        self._sim = sim
        self._latency = latency if latency is not None else Exponential(0.150)
        self._rng = rng if rng is not None else random.Random(0)
        self._observer = observer
        #: Optional causal tracer (:mod:`repro.obs.tracing`).  Stamps a
        #: trace context onto every envelope at the same point the
        #: observer fires; draws no randomness and sends nothing, so
        #: traced runs stay bit-identical to untraced ones.
        self.tracer = tracer
        self._injector = None
        if faults is not None and not faults.is_empty():
            from ..faults.plan import FaultInjector

            self._injector = FaultInjector(faults)
        self._handlers: Dict[NodeId, MessageHandler] = {}
        self._crashed: Set[NodeId] = set()
        self._last_arrival: Dict[Tuple[NodeId, NodeId], float] = {}
        self._sent_by_plane: Dict[str, int] = collections.defaultdict(int)
        self._messages_dropped = 0

    @property
    def messages_dropped(self) -> int:
        """Messages discarded by faults (rules, partitions, crashed nodes)."""

        return self._messages_dropped

    @property
    def messages_sent(self) -> int:
        """Total envelopes transmitted (excluding node-local deliveries)."""

        return sum(self._sent_by_plane.values())

    @property
    def messages_by_plane(self) -> Dict[str, int]:
        """:attr:`messages_sent`, by the plane each type declared."""

        return dict(sorted(self._sent_by_plane.items()))

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
        change inside a call is read once, the rest per envelope.
        """

        sim = self._sim
        now, schedule, deliver = sim.now, sim.schedule, self._deliver
        handlers, crashed, floors, by_plane = (
            self._handlers, self._crashed, self._last_arrival,
            self._sent_by_plane,
        )
        sender_down = sender in crashed
        injector, observer, tracer = self._injector, self._observer, self.tracer
        sample, rng = self._latency.sample, self._rng
        for envelope in envelopes:
            dest = envelope.dest
            if dest not in handlers:
                raise SimulationError(f"message to unregistered node {dest}")
            if sender_down or dest in crashed:
                self._messages_dropped += 1
                continue
            if dest == sender:
                # A node talking to itself does not cross the wire.
                schedule(0.0, partial(deliver, sender, envelope))
                continue
            message = envelope.message
            copies, extra, reorder = 1, 0.0, False
            if injector is not None:
                decision = injector.decide(now, sender, dest, message)
                if decision.drop:
                    self._messages_dropped += 1
                    continue
                copies, extra, reorder = (
                    decision.copies, decision.extra_delay, decision.reorder
                )
            by_plane[message.plane] += 1
            if observer is not None:
                observer(sender, dest, message)
            if tracer is not None:
                envelope = tracer.outbound(sender, envelope)
            key = (sender, dest)
            for _ in range(copies):
                arrival = now + (sample(rng) + extra)
                if message.ordered and not reorder:
                    # FIFO per ordered pair: never deliver before an earlier
                    # ordered message.  A datagram — an unordered type, or a
                    # fault-plan reorder — deliberately skips the floor (and
                    # does not raise it for its successors).
                    floor = floors.get(key, 0.0)
                    if arrival < floor:
                        arrival = floor
                    floors[key] = arrival
                # ``arrival - now`` then ``now + delay`` in the engine: the
                # float round trip is part of every seeded trajectory.
                schedule(arrival - now, partial(deliver, sender, envelope))

    def _deliver(self, sender: NodeId, envelope: Envelope) -> None:
        if envelope.dest in self._crashed:
            # Crashed while the message was in flight.
            self._messages_dropped += 1
            return
        handler = self._handlers[envelope.dest]
        tracer = self.tracer
        if tracer is None:
            replies = handler(envelope.message)
            if replies:
                self.send(envelope.dest, replies)
            return
        tracer.delivered(envelope.dest, envelope.message)
        # Scope stays open through the reply sends so replies without a
        # parent hint still land on this message's causal chain.
        tracer.begin_delivery(envelope.dest, envelope.message)
        try:
            replies = handler(envelope.message)
            if replies:
                self.send(envelope.dest, replies)
        finally:
            tracer.end_delivery(envelope.dest)
