"""Per-pair reliable FIFO sessions over a lossy, duplicating fabric.

The hierarchical protocol (like the paper's MPI deployment) assumes
reliable FIFO channels.  :class:`ReliableChannel` restores that
assumption on top of a fabric that may drop, duplicate, delay or reorder:
every protocol message travelling from node *A* to node *B* is wrapped in
a :class:`~repro.faults.messages.SessionMessage` carrying a per-ordered-
pair sequence number.  The receiver delivers strictly in order (buffering
out-of-order arrivals, dropping duplicates) and acknowledges cumulatively;
the sender retransmits every unacknowledged frame on a capped exponential
backoff timer.

Restarts are handled with ``boot`` incarnation numbers: a restarted node
opens streams under a higher boot, which tells peers to reset their
receive state instead of discarding the fresh stream's frames as replays
of the previous life.

The channel is deliberately oblivious to message *meaning* — recovery
coordination traffic (heartbeats, probes) bypasses it, because those
messages are idempotent, periodically re-sent anyway, and must keep
flowing to/from peers whose streams are being torn down.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Callable, Dict, Optional

from ..core.messages import Message, NodeId
from .messages import SessionAck, SessionMessage
from .scheduler import Timers

#: ``send(dest, message)`` — put one raw message on the fabric.
SendFn = Callable[[NodeId, Message], None]
#: ``deliver(peer, message)`` — hand one in-order payload up the stack.
DeliverFn = Callable[[NodeId, Message], None]


class _OutStream:
    """Sender-side state of one ordered pair."""

    __slots__ = ("next_seq", "unacked", "interval")

    def __init__(self, base_interval: float) -> None:
        self.next_seq = 0
        self.unacked: "OrderedDict[int, SessionMessage]" = OrderedDict()
        self.interval = base_interval


class _InStream:
    """Receiver-side state of one ordered pair."""

    __slots__ = ("expected", "buffer", "boot")

    def __init__(self) -> None:
        self.expected = 0
        self.buffer: Dict[int, Message] = {}
        self.boot = 0


class ReliableChannel:
    """Reliable in-order delivery for one node's protocol traffic.

    Parameters
    ----------
    node_id:
        The hosting node.
    scheduler:
        ``now()`` / ``call_later(delay, fn)`` time source (see
        :mod:`repro.faults.scheduler`).
    send:
        Raw fabric send used for frames, acks and retransmissions.
    deliver:
        Upcall for each payload, invoked exactly once per frame and in
        per-sender order.
    retry_base / retry_cap:
        Retransmission backoff: first retry after ``retry_base`` seconds,
        doubling per silent retry up to ``retry_cap``; any ack progress
        resets the interval.
    boot:
        This node's incarnation number (bumped on restart).
    mutex:
        Lock guarding all channel state.  The recovery manager passes its
        own re-entrant lock so timer callbacks, transport upcalls and
        application sends serialize against each other without lock-order
        cycles.
    """

    def __init__(
        self,
        node_id: NodeId,
        scheduler,
        send: SendFn,
        deliver: DeliverFn,
        retry_base: float = 0.25,
        retry_cap: float = 2.0,
        boot: int = 0,
        mutex: Optional["threading.RLock"] = None,
    ) -> None:
        self._node_id = node_id
        self._send = send
        self._deliver = deliver
        self._retry_base = retry_base
        self._retry_cap = retry_cap
        self.boot = boot
        self._mutex = mutex if mutex is not None else threading.RLock()
        #: One retransmit timer per peer with unacknowledged frames,
        #: keyed by the peer.  The channel's own facility: running from
        #: construction (frames sent before the node starts still retry)
        #: until :meth:`stop`.
        self._timers = Timers(scheduler, self._mutex)
        self._out: Dict[NodeId, _OutStream] = {}
        self._in: Dict[NodeId, _InStream] = {}
        #: Frames re-sent by the backoff timer (verdict/test counter).
        self.retransmits = 0
        #: Frames dropped as duplicates or stale-incarnation traffic.
        self.duplicates_dropped = 0
        #: Optional causal tracer (set by the recovery manager).  Frames
        #: are stamped *before* entering ``unacked`` so a retransmission
        #: re-sends the stamped object and the tracer recognizes it as an
        #: annotated retransmit hop rather than a fresh message.
        self.tracer = None
        #: Optional observability sink; timer retransmissions are
        #: reported as ``fault("channel-retransmit", node)`` events.
        self.obs = None

    # -- sending -----------------------------------------------------------

    def send(self, dest: NodeId, payload: Message) -> None:
        """Send *payload* reliably and in order to *dest*."""

        with self._mutex:
            stream = self._out.get(dest)
            if stream is None:
                stream = self._out[dest] = _OutStream(self._retry_base)
            frame = SessionMessage(
                lock_id=payload.lock_id,
                sender=self._node_id,
                seq=stream.next_seq,
                payload=payload,
                boot=self.boot,
            )
            if self.tracer is not None:
                frame = self.tracer.stamp_frame(self._node_id, dest, frame)
            stream.next_seq += 1
            was_idle = not stream.unacked
            stream.unacked[frame.seq] = frame
            if was_idle:
                stream.interval = self._retry_base
                self._arm_timer(dest, stream)
        self._send(dest, frame)

    def _arm_timer(self, dest: NodeId, stream: _OutStream) -> None:
        self._timers.arm(dest, stream.interval, self._on_timer, dest, stream)

    def _on_timer(self, dest: NodeId, stream: _OutStream) -> None:
        frames = list(stream.unacked.values())
        self.retransmits += len(frames)
        stream.interval = min(stream.interval * 2, self._retry_cap)
        self._arm_timer(dest, stream)
        if self.obs is not None:
            for _ in frames:
                self.obs.fault("channel-retransmit", self._node_id)
        for frame in frames:
            self._send(dest, frame)

    # -- receiving ---------------------------------------------------------

    def handle(self, message: Message) -> bool:
        """Process one frame or ack off the fabric.

        Returns ``True`` iff the message belonged to this channel
        (callers route everything else to the recovery dispatcher).
        """

        if isinstance(message, SessionMessage):
            self._handle_frame(message)
            return True
        if isinstance(message, SessionAck):
            self._handle_ack(message)
            return True
        return False

    def _handle_frame(self, frame: SessionMessage) -> None:
        peer = frame.sender
        deliverable = []
        with self._mutex:
            stream = self._in.get(peer)
            if stream is None:
                stream = self._in[peer] = _InStream()
                stream.boot = frame.boot
            if frame.boot > stream.boot:
                # The peer restarted: its new incarnation starts a fresh
                # stream at seq 0.  Anything buffered from the old life
                # is gone for good (and so is the old peer's state).
                stream.boot = frame.boot
                stream.expected = 0
                stream.buffer.clear()
            elif frame.boot < stream.boot:
                self.duplicates_dropped += 1
                return  # A ghost from a dead incarnation.
            if frame.seq == stream.expected:
                stream.expected += 1
                deliverable.append(frame.payload)
                while stream.expected in stream.buffer:
                    deliverable.append(stream.buffer.pop(stream.expected))
                    stream.expected += 1
            elif frame.seq > stream.expected:
                stream.buffer[frame.seq] = frame.payload
            else:
                self.duplicates_dropped += 1
            ack = SessionAck(
                lock_id="",
                sender=self._node_id,
                ack=stream.expected - 1,
                boot=frame.boot,
            )
        self._send(peer, ack)
        for payload in deliverable:
            self._deliver(peer, payload)

    def _handle_ack(self, ack: SessionAck) -> None:
        with self._mutex:
            if ack.boot != self.boot:
                return  # Acknowledges a previous incarnation's stream.
            stream = self._out.get(ack.sender)
            if stream is None:
                return
            progressed = False
            while stream.unacked and next(iter(stream.unacked)) <= ack.ack:
                stream.unacked.popitem(last=False)
                progressed = True
            if progressed:
                stream.interval = self._retry_base
                if stream.unacked:
                    self._arm_timer(dest=ack.sender, stream=stream)
                else:
                    self._timers.cancel(ack.sender)  # Nothing left to retry.

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        """(Re-)enable retransmission for what is sent from now on.  (The
        timers :meth:`stop` cleared stay cleared: a node comes back as a
        new incarnation behind a new channel, not behind this one.)"""

        with self._mutex:
            self._timers.running = True

    def stop(self) -> None:
        """The node died or shut down: retransmit nothing further.

        A dead node's unacknowledged frames die with it — whoever takes
        its place opens fresh streams under a higher boot.  Without this
        the stopped node kept re-sending every one of them, at the
        backoff cap, for as long as the scheduler ran.
        """

        with self._mutex:
            self._timers.running = False
            self._timers.clear()

    def stop_peer(self, peer: NodeId) -> None:
        """Tear down both streams with *peer* (it is presumed dead).

        Unacknowledged frames are abandoned: retransmitting into a dead
        node is pure noise, and the recovery layer re-issues whatever
        still matters (pending requests, subtree announcements) when the
        peer — or its replacement parent — comes back.
        """

        with self._mutex:
            self._out.pop(peer, None)
            self._timers.cancel(peer)
            self._in.pop(peer, None)

    def idle(self) -> bool:
        """True iff no frame is awaiting acknowledgement."""

        with self._mutex:
            return all(not s.unacked for s in self._out.values())

    def backlog(self) -> int:
        """Total frames sent but not yet acknowledged, across all peers."""

        with self._mutex:
            return sum(len(s.unacked) for s in self._out.values())
