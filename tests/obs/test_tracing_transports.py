"""Causal tracing through the real transports.

Three guarantees the tracing layer makes beyond the simulated network:

* over the faults session channel, a retransmission of a frame is
  recognized as the same hop (annotated, not re-minted), and its
  arrival lands on the original hop;
* a sim run, a threaded run and a TCP run of the same sequential
  workload produce identical causal chain shapes — same hops, same
  parents, same endpoints — even though their clocks are unrelated;
* the hop id rides beside the message (the threaded inbox item, the TCP
  frame tuple), never in it.
"""

from __future__ import annotations

import time
from typing import Callable, List, Tuple

from repro.core.messages import (
    Envelope,
    RequestMessage,
    fresh_request_id,
)
from repro.core.modes import LockMode
from repro.faults.channel import ReliableChannel
from repro.faults.messages import SessionMessage
from repro.obs.collect import RunObserver
from repro.obs.tracing import MessageTracer
from repro.runtime.cluster import ThreadedHierarchicalCluster
from repro.runtime.tcp import TcpTransport
from repro.runtime.transport import ThreadedTransport
from repro.sim.cluster import SimHierarchicalCluster
from repro.sim.engine import Simulator, Timeout, run_processes
from tests.faults.test_channel import ManualScheduler

TIMEOUT = 20.0


def _payload(n: int = 1, node: int = 0) -> RequestMessage:
    return RequestMessage(
        lock_id="lock",
        sender=node,
        origin=node,
        mode=LockMode.R,
        request_id=fresh_request_id(n, node),
    )


class _TracedPair:
    """Two reliable channels over a lossy fabric that runs the tracer at
    the same points the real transports do (outbound at the wire, the
    hop id carried to the far end's delivery)."""

    def __init__(self) -> None:
        self.scheduler = ManualScheduler()
        self.tracer = MessageTracer(clock=self.scheduler.now)
        self.delivered: List[Tuple[int, object]] = []
        self.drop_next = 0

        def fabric_for(src: int) -> Callable[[int, object], None]:
            def send(dest: int, frame) -> None:
                hop = self.tracer.outbound(src, Envelope(dest, frame))
                if self.drop_next > 0 and isinstance(frame, SessionMessage):
                    self.drop_next -= 1
                    return
                target = self.b if dest == 1 else self.a
                self.tracer.delivered(dest, frame, hop)
                target.handle(frame)

            return send

        def receiver(sender: int, payload) -> None:
            self.delivered.append((sender, payload))

        self.a = ReliableChannel(
            node_id=0, scheduler=self.scheduler, send=fabric_for(0),
            deliver=receiver, rto_min=0.1, rto_max=0.4,
        )
        self.b = ReliableChannel(
            node_id=1, scheduler=self.scheduler, send=fabric_for(1),
            deliver=receiver, rto_min=0.1, rto_max=0.4,
        )


class TestSessionChannel:
    def test_retransmission_is_annotated_not_reminted(self):
        pair = _TracedPair()
        pair.drop_next = 1  # lose the first wire copy
        sent = _payload()
        pair.a.send(1, sent)
        assert pair.delivered == []
        pair.scheduler.advance(0.45)  # retry timer fires (unlearned: the cap)
        assert pair.delivered == [(0, sent)]
        (chain,) = pair.tracer.chains()
        assert [h.kind for h in chain.hops] == ["send", "retransmit"]
        # The arrival lands on the *original* hop.
        assert chain.hops[0].recv_at is not None
        assert chain.hops[1].recv_at is None

    def test_acks_are_untraced(self):
        pair = _TracedPair()
        pair.a.send(1, _payload())
        pair.scheduler.advance(1.0)  # let acks flow both ways
        assert all(c.trace_id for c in pair.tracer.chains())
        labels = {
            h.label for c in pair.tracer.chains() for h in c.hops
        }
        assert "session-ack" not in labels


def _chain_shapes(tracer) -> List[Tuple]:
    """Clock-free canonical form of every chain, in mint order.

    The trace id itself is excluded: hierarchical ids embed the request
    serial, which is derived from the Lamport clock and therefore ticks
    differently on different transports.  Everything structural — hop
    topology, endpoints, labels, kinds, the granted hop — must match.
    """

    shapes = []
    for chain in tracer.chains():
        shapes.append((
            chain.origin,
            chain.lock,
            chain.kind,
            chain.granted_hop,
            tuple(
                (h.hop, h.parent, h.sender, h.dest, h.label, h.kind)
                for h in chain.hops
            ),
        ))
    return shapes


#: (node, lock) acquire/release sequence, one operation fully settled
#: before the next starts — the message pattern is then a function of
#: protocol state alone, not of transport timing.
SEQUENCE = [(0, "t"), (1, "t"), (2, "t"), (1, "u"), (0, "t"), (2, "u")]


def _sim_shapes() -> List[Tuple]:
    sim = Simulator()
    obs = RunObserver(clock=lambda: sim.now)
    cluster = SimHierarchicalCluster(3, sim=sim, obs=obs)

    def body():
        for node, lock in SEQUENCE:
            client = cluster.client(node)
            yield client.acquire(lock, LockMode.W)
            client.release(lock, LockMode.W)
            yield Timeout(sim, 10.0)  # drain in-flight releases

    run_processes(sim, [body()])
    return _chain_shapes(obs.tracer)


def _threaded_shapes() -> List[Tuple]:
    obs = RunObserver()
    transport = ThreadedTransport(obs=obs)
    with ThreadedHierarchicalCluster(3, transport=transport) as cluster:
        for node, lock in SEQUENCE:
            client = cluster.client(node)
            client.acquire(lock, LockMode.W, timeout=TIMEOUT)
            client.release(lock, LockMode.W)
            transport.drain()
    return _chain_shapes(obs.tracer)


def _settle(tracer, rounds: int = 3, poll: float = 0.01) -> None:
    """Wait until every traced hop has arrived, *rounds* polls running
    (the TCP transport has no in-flight counter to drain on)."""

    deadline, quiet = time.monotonic() + TIMEOUT, 0
    while quiet < rounds:
        assert time.monotonic() < deadline, "TCP run never settled"
        arrived = all(
            hop.recv_at is not None
            for chain in tracer.chains()
            for hop in chain.hops
        )
        quiet = quiet + 1 if arrived else 0
        time.sleep(poll)


def _tcp_shapes() -> List[Tuple]:
    obs = RunObserver()
    transport = TcpTransport(obs=obs)
    with ThreadedHierarchicalCluster(3, transport=transport) as cluster:
        for node, lock in SEQUENCE:
            client = cluster.client(node)
            client.acquire(lock, LockMode.W, timeout=TIMEOUT)
            client.release(lock, LockMode.W)
            _settle(obs.tracer)
    return _chain_shapes(obs.tracer)


class TestSimVsThreaded:
    def test_same_workload_same_chain_shapes(self):
        sim_shapes = _sim_shapes()
        threaded_shapes = _threaded_shapes()
        assert sim_shapes, "sim run produced no chains"
        assert sim_shapes == threaded_shapes

    def test_tcp_frames_carry_the_hop(self):
        assert _tcp_shapes() == _sim_shapes()
