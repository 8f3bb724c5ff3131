"""One batched ``Network.send`` equals the same envelopes sent one by one.

``Network.send`` reads what cannot change inside a call once per batch.
The trajectory of a seeded run is the heap (times *and* sequence
numbers), the drop and send counters, the FIFO floors and the state of
both RNG streams, so that is what is compared here, against a reference
that re-reads everything per envelope (``ParentNetwork._send_one``).
The reference follows the fabric's contract, not its history: since
issue 24 a datagram type (the script's heartbeats) skips the FIFO floor
exactly as a fault-plan ``reorder`` does, and sends are counted by type
and reported once to the obs sink.  A send to the sender's own node is
refused like one to an unregistered node, and a datagram is offered to
the destination's absorber in its reserved slot (the ``absorbing``
setting; the fabric takes its one-copy datagrams down a branch of their
own, which this reference does not have).
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.messages import (
    Envelope,
    ReleaseMessage,
    RequestMessage,
    fault_label,
    fresh_request_id,
)
from repro.core.modes import LockMode
from repro.errors import SimulationError
from repro.faults.messages import HeartbeatMessage
from repro.faults.plan import (
    DELAY,
    DROP,
    DUPLICATE,
    REORDER,
    FaultPlan,
    FaultRule,
)
from repro.obs.sink import ObsSink
from repro.obs.tracing import MessageTracer
from repro.sim.engine import Simulator
from repro.sim.network import Network
from repro.sim.rng import Exponential

NODES = 4


class ParentNetwork(Network):
    """``send`` as it was before issue 22: one ``_send_one`` per envelope
    (with issue 24's delivery classes)."""

    def send(self, sender, envelopes):
        for envelope in envelopes:
            self._send_one(sender, envelope)

    def _send_one(self, sender, envelope):
        dest = envelope.dest
        if dest not in self._handlers:
            raise SimulationError(f"message to unregistered node {dest}")
        if dest == sender:
            raise SimulationError(f"node {sender} sent a message to itself")
        if sender in self._crashed or dest in self._crashed:
            self._messages_dropped += 1
            return
        if self._injector is not None:
            decision = self._injector.decide(
                self._sim.now, sender, dest, envelope.message
            )
            if decision.drop:
                self._messages_dropped += 1
                return
        else:
            decision = None
        self._sent_by_type[type(envelope.message)] += 1
        if self.obs is not None:
            self.obs.message(sender, dest, fault_label(envelope.message))
        hop = None
        if self.tracer is not None:
            hop = self.tracer.outbound(sender, envelope)
        copies = 1 if decision is None else decision.copies
        extra = 0.0 if decision is None else decision.extra_delay
        reorder = (
            decision is not None and decision.reorder
        ) or not envelope.message.ordered
        key = (sender, dest)
        for _ in range(copies):
            delay = self._latency.sample(self._rng) + extra
            arrival = self._sim.now + delay
            if not reorder:
                floor = self._last_arrival.get(key, 0.0)
                if arrival < floor:
                    arrival = floor
                self._last_arrival[key] = arrival
            absorb = self._absorbers.get(dest)
            if reorder and absorb is not None:
                slot = self._sim.reserve(arrival - self._sim.now)
                if not absorb(envelope.message, slot):
                    self._sim.put(
                        slot, lambda: self._deliver(sender, envelope, hop)
                    )
                continue
            self._sim.schedule(
                arrival - self._sim.now,
                lambda: self._deliver(sender, envelope, hop),
            )


def _plan(seed: int) -> FaultPlan:
    return FaultPlan(
        rules=(
            FaultRule(action=DROP, probability=0.2),
            FaultRule(action=DUPLICATE, probability=0.3),
            FaultRule(action=REORDER, probability=0.3),
            FaultRule(action=DELAY, probability=0.3, delay=0.4),
        ),
        seed=seed,
    )


def _message(kind: int, sender: int, serial: int):
    if kind == 0:
        return HeartbeatMessage(lock_id="", sender=sender, boot=serial)
    if kind == 1:
        return ReleaseMessage(lock_id="L", sender=sender, new_mode=LockMode.NONE)
    return RequestMessage(
        lock_id="L", sender=sender, origin=sender, mode=LockMode.R,
        request_id=fresh_request_id(serial, sender),
    )


class _Sink(ObsSink):
    """Records every ``message`` call; carries a tracer if given one."""

    def __init__(self, tracer=None) -> None:
        self.observed = []
        self.tracer = tracer

    def message(self, sender, dest, label):
        self.observed.append((sender, dest, label))


class _World:
    """A network of ``NODES`` sinks and everything a run can be told by."""

    def __init__(self, cls, seed: int, setting: str) -> None:
        self.sim = Simulator()
        self.delivered = []
        self.kept = []
        self.rng = random.Random(seed)
        self.obs = None
        if setting == "observer":
            self.obs = _Sink()
        elif setting == "tracer":
            self.obs = _Sink(MessageTracer(clock=lambda: self.sim.now))
        self.network = cls(
            self.sim,
            latency=Exponential(0.150),
            rng=self.rng,
            faults=_plan(seed) if setting == "plan" else None,
            obs=self.obs,
        )
        for node in range(NODES):
            self.network.register(node, self._sink(node))
            if setting == "absorbing":
                self.network.attach_absorber(node, self._absorber(node))

    def _sink(self, node: int):
        def handler(message):
            self.delivered.append((self.sim.now, node, message))
            return []

        return handler

    def _absorber(self, node: int):
        """Keeps every heartbeat with an even ``boot``, as a receiver that
        could fold it would, and notes the slot it was kept in."""

        def absorb(message, slot):
            keep = type(message) is HeartbeatMessage and message.boot % 2 == 0
            if keep:
                self.kept.append((node, slot, message))
            return keep

        return absorb

    def fingerprint(self):
        network = self.network
        injector = network.injector
        return (
            sorted((time, seq) for time, seq, _fn in self.sim._heap),
            network.messages_sent,
            network.messages_by_plane,
            network.messages_by_label,
            network.messages_dropped,
            dict(network._last_arrival),
            self.rng.getstate(),
            None if injector is None else injector._rng.getstate(),
            None if self.obs is None else self.obs.observed,
            list(self.kept),
        )


batches = st.lists(
    st.tuples(
        st.integers(0, NODES - 1),                       # sender
        st.lists(                                        # (dest, kind)
            st.tuples(st.integers(0, NODES - 1), st.integers(0, 2)),
            max_size=8,
        ),
        st.floats(0.0, 0.3),                             # then run this long
        st.sampled_from([None, None, None, 0, 1]),       # then crash / restart
    ),
    min_size=1,
    max_size=6,
)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**31),
    setting=st.sampled_from(
        ["plain", "plan", "observer", "tracer", "absorbing"]
    ),
    script=batches,
)
def test_one_batch_equals_the_parents_single_sends(seed, setting, script):
    parent = _World(ParentNetwork, seed, setting)
    change = _World(Network, seed, setting)
    serial = 0
    for sender, fanout, run_for, flip in script:
        envelopes = []
        for dest, kind in fanout:
            serial += 1
            envelopes.append(Envelope(dest, _message(kind, sender, serial)))
        # The parent's producers: one one-element list per envelope.  A
        # self-send stops the loop there, and the batch at the same one.
        refused = any(envelope.dest == sender for envelope in envelopes)
        try:
            for envelope in envelopes:
                parent.network.send(sender, [envelope])
        except SimulationError:
            assert refused
        if refused:
            with pytest.raises(SimulationError, match="to itself"):
                change.network.send(sender, envelopes)
        else:
            change.network.send(sender, envelopes)
        assert change.fingerprint() == parent.fingerprint()
        for world in (parent, change):
            world.sim.run(until=world.sim.now + run_for)
            if flip is not None:
                if world.network.is_crashed(flip):
                    world.network.restart(flip)
                else:
                    world.network.crash(flip)
    for world in (parent, change):
        world.sim.run()
    assert change.delivered == parent.delivered
    assert change.fingerprint() == parent.fingerprint()
    assert change.sim.events_processed == parent.sim.events_processed


def test_a_batch_to_an_unregistered_node_stops_where_the_loop_did():
    sim = Simulator()
    network = Network(sim, rng=random.Random(1))
    network.register(0, lambda message: [])
    network.register(1, lambda message: [])
    batch = [Envelope(1, _message(1, 0, 1)), Envelope(9, _message(1, 0, 2)),
             Envelope(1, _message(1, 0, 3))]
    with pytest.raises(SimulationError):
        network.send(0, batch)
    assert network.messages_sent == 1 and sim.pending_events == 1
