"""In-process message transport for the threaded runtime.

Each node owns an inbox (a :class:`queue.Queue`) drained by a dedicated
dispatcher thread.  Handlers are the same transport-agnostic automata used
by the simulator; the per-node mutex of the threaded cluster
(:mod:`repro.runtime.cluster`) serializes handler execution against
application calls, so the automata never see concurrent access.

An optional delay distribution injects artificial latency (useful to shake
out reordering bugs between *different* node pairs; per-pair FIFO is
preserved by delaying inside the destination's dispatcher, mirroring a
TCP connection's in-order delivery).
"""

from __future__ import annotations

import queue
import random
import threading
import time
from typing import Callable, Dict, List, Optional

from ..core.messages import Envelope, NodeId, fault_label
from ..errors import SimulationError, unroutable
from ..obs.sink import ObsSink
from ..sim.rng import Distribution

#: Handler signature, identical to the simulator's.
MessageHandler = Callable[[object], List[Envelope]]

_STOP = object()


class ThreadedTransport:
    """Queue-per-node transport with dispatcher threads."""

    def __init__(
        self,
        delay: Optional[Distribution] = None,
        seed: int = 0,
        obs: Optional[ObsSink] = None,
    ) -> None:
        self._delay = delay
        self._rng = random.Random(seed)
        self._rng_lock = threading.Lock()
        #: Optional observability sink: cross-node traffic is reported as
        #: ``message`` plus ``wire_sent(nbytes=0, enqueue→dispatch latency)``.
        self.obs = obs
        #: Optional causal tracer, adopted from ``obs`` when it has one
        #: (see :mod:`repro.obs.tracing`); the inbox item carries the hop
        #: id it records beside the envelope.
        self.tracer = getattr(obs, "tracer", None)
        self._inboxes: Dict[NodeId, "queue.Queue"] = {}
        self._handlers: Dict[NodeId, MessageHandler] = {}
        self._threads: Dict[NodeId, threading.Thread] = {}
        self._started = False
        self._messages_sent = 0
        self._count_lock = threading.Lock()
        # Envelopes enqueued but not yet fully processed (handler run AND
        # its replies enqueued).  ``drain`` quiesces on this counter, not
        # on inbox emptiness: an empty inbox says nothing about a handler
        # that is mid-flight and about to send.
        self._inflight = 0
        self._inflight_lock = threading.Lock()

    @property
    def messages_sent(self) -> int:
        """Total envelopes transmitted between distinct nodes."""

        return self._messages_sent

    def register(self, node_id: NodeId, handler: MessageHandler) -> None:
        """Attach *handler* as the message sink of *node_id*.

        Registering on a started transport (a membership join) spawns the
        node's dispatcher thread immediately.
        """

        if node_id in self._handlers:
            raise SimulationError(f"node {node_id} registered twice")
        self._handlers[node_id] = handler
        self._inboxes[node_id] = queue.Queue()
        if self._started:
            self._spawn_dispatcher(node_id)

    def _spawn_dispatcher(self, node_id: NodeId) -> None:
        thread = threading.Thread(
            target=self._dispatch_loop,
            args=(node_id,),
            name=f"repro-transport-{node_id}",
            daemon=True,
        )
        self._threads[node_id] = thread
        thread.start()

    def start(self) -> None:
        """Spawn one dispatcher thread per registered node."""

        if self._started:
            return
        self._started = True
        for node_id in self._handlers:
            self._spawn_dispatcher(node_id)

    def stop(self) -> None:
        """Stop every dispatcher thread and join them."""

        if not self._started:
            return
        for inbox in self._inboxes.values():
            inbox.put(_STOP)
        for thread in self._threads.values():
            thread.join(timeout=5.0)
        self._started = False
        self._threads.clear()

    def send(self, sender: NodeId, envelopes: List[Envelope]) -> None:
        """Enqueue *envelopes* for delivery.

        A destination that is not registered, or is *sender* itself, is
        a :class:`SimulationError`: no protocol talks to its own node.
        """

        for envelope in envelopes:
            dest = envelope.dest
            if dest == sender or dest not in self._inboxes:
                raise unroutable(sender, dest)
            with self._count_lock:
                self._messages_sent += 1
            if self.obs is not None:
                self.obs.message(sender, dest, fault_label(envelope.message))
            hop = None
            if self.tracer is not None:
                hop = self.tracer.outbound(sender, envelope)
            with self._inflight_lock:
                self._inflight += 1
            self._inboxes[dest].put(
                (sender, envelope, time.perf_counter(), hop)
            )

    def _quiesced(self) -> bool:
        """True iff no envelope is enqueued or being handled right now."""

        with self._inflight_lock:
            return self._inflight == 0

    def drain(self, poll: float = 0.001, settle_rounds: int = 3) -> None:
        """Block until the fabric is quiescent.

        Quiescence is tracked exactly: every enqueued envelope bumps an
        in-flight counter that is only decremented *after* its handler
        returned and any replies were enqueued (which re-bumps the counter
        first), so the counter never falsely touches zero in the middle of
        a handler cascade.  The old inbox-emptiness heuristic could race a
        mid-flight handler: all inboxes look empty for several polls while
        one dispatcher is still inside ``handler()`` about to ``send``.

        *settle_rounds* consecutive quiescent polls are still required,
        plus a final confirm pass — if anything slipped in between the
        last poll and the confirmation (e.g. an application thread calling
        ``send`` concurrently with ``drain``), the settle loop restarts.
        """

        while True:
            consecutive = 0
            while consecutive < settle_rounds:
                if self._quiesced():
                    consecutive += 1
                else:
                    consecutive = 0
                time.sleep(poll)
            # Drain-confirm second pass: declare idle only if nothing
            # arrived since the settle loop's last observation.
            if self._quiesced():
                return

    def _dispatch_loop(self, node_id: NodeId) -> None:
        inbox = self._inboxes[node_id]
        handler = self._handlers[node_id]
        while True:
            item = inbox.get()
            if item is _STOP:
                return
            sender, envelope, enqueued_at, hop = item
            try:
                if self.obs is not None:
                    self.obs.wire_sent(
                        sender, node_id, 0, time.perf_counter() - enqueued_at
                    )
                if self._delay is not None:
                    with self._rng_lock:
                        pause = self._delay.sample(self._rng)
                    time.sleep(pause)
                tracer = self.tracer
                if tracer is None:
                    replies = handler(envelope.message)
                    if replies:
                        self.send(node_id, replies)
                    continue
                tracer.deliver(
                    node_id, envelope.message, hop, handler, self.send
                )
            finally:
                # Replies (if any) were enqueued above, so the counter
                # cannot dip to zero while the cascade continues.
                with self._inflight_lock:
                    self._inflight -= 1
