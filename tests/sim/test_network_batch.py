"""One batched ``Network.send`` equals the same envelopes sent one by one.

``Network.send`` reads what cannot change inside a call once per batch.
The trajectory of a seeded run is the heap (times *and* sequence
numbers), the drop and send counters, the FIFO floors and the state of
both RNG streams, so that is what is compared here, against a reference
that re-reads everything per envelope (``ParentNetwork._send_one``).
The reference follows the fabric's contract, not its history: since
issue 24 a datagram type (the script's heartbeats) skips the FIFO floor
exactly as a fault-plan ``reorder`` does, and sends are counted by plane.
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
        if sender in self._crashed or dest in self._crashed:
            self._messages_dropped += 1
            return
        if dest == sender:
            self._sim.schedule(0.0, lambda: self._deliver(sender, envelope))
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
        self._sent_by_plane[envelope.message.plane] += 1
        if self._observer is not None:
            self._observer(sender, dest, envelope.message)
        if self.tracer is not None:
            envelope = self.tracer.outbound(sender, envelope)
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
            self._sim.schedule(
                arrival - self._sim.now,
                lambda: self._deliver(sender, envelope),
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


class _World:
    """A network of ``NODES`` sinks and everything a run can be told by."""

    def __init__(self, cls, seed: int, setting: str) -> None:
        self.sim = Simulator()
        self.observed = []
        self.delivered = []
        self.rng = random.Random(seed)
        self.network = cls(
            self.sim,
            latency=Exponential(0.150),
            rng=self.rng,
            observer=(
                (lambda s, d, m: self.observed.append((s, d, m)))
                if setting == "observer" else None
            ),
            faults=_plan(seed) if setting == "plan" else None,
            tracer=(
                MessageTracer(clock=lambda: self.sim.now)
                if setting == "tracer" else None
            ),
        )
        for node in range(NODES):
            self.network.register(node, self._sink(node))

    def _sink(self, node: int):
        def handler(message):
            self.delivered.append((self.sim.now, node, message))
            return []

        return handler

    def fingerprint(self):
        network = self.network
        injector = network.injector
        return (
            sorted((time, seq) for time, seq, _fn in self.sim._heap),
            network.messages_sent,
            network.messages_by_plane,
            network.messages_dropped,
            dict(network._last_arrival),
            self.rng.getstate(),
            None if injector is None else injector._rng.getstate(),
            self.observed,
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
    setting=st.sampled_from(["plain", "plan", "observer", "tracer"]),
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
        # The parent's producers: one one-element list per envelope.
        for envelope in envelopes:
            parent.network.send(sender, [envelope])
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
