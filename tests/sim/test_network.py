"""Tests for the simulated point-to-point network."""

from __future__ import annotations

import pytest

from repro.core.messages import Envelope, ReleaseMessage
from repro.core.modes import LockMode
from repro.errors import SimulationError
from repro.faults.messages import HeartbeatMessage, SessionAck, SessionMessage
from repro.faults.plan import REORDER, FaultPlan, FaultRule
from repro.sim.engine import Simulator
from repro.sim.network import Network
from repro.sim.rng import Distribution, Exponential, Fixed, derive_rng


def _release(lock_id="L", sender=0, mode=LockMode.NONE):
    return ReleaseMessage(lock_id=lock_id, sender=sender, new_mode=mode)


class TestDelivery:
    def test_message_reaches_handler(self):
        sim = Simulator()
        network = Network(sim, latency=Fixed(0.1))
        received = []
        network.register(0, lambda msg: [])
        network.register(1, lambda msg: received.append(msg) or [])
        network.send(0, [Envelope(1, _release())])
        sim.run()
        assert len(received) == 1
        assert sim.now == pytest.approx(0.1)

    def test_replies_are_transmitted(self):
        sim = Simulator()
        network = Network(sim, latency=Fixed(0.1))
        received_at_zero = []
        network.register(
            0, lambda msg: received_at_zero.append(msg) or []
        )
        network.register(1, lambda msg: [Envelope(0, _release(sender=1))])
        network.send(0, [Envelope(1, _release())])
        sim.run()
        assert len(received_at_zero) == 1
        assert sim.now == pytest.approx(0.2)

    def test_unregistered_destination_rejected(self):
        sim = Simulator()
        network = Network(sim)
        network.register(0, lambda msg: [])
        with pytest.raises(SimulationError):
            network.send(0, [Envelope(9, _release())])

    def test_duplicate_registration_rejected(self):
        sim = Simulator()
        network = Network(sim)
        network.register(0, lambda msg: [])
        with pytest.raises(SimulationError):
            network.register(0, lambda msg: [])

    def test_self_messages_bypass_the_wire(self):
        sim = Simulator()
        network = Network(sim, latency=Fixed(5.0))
        received = []
        network.register(0, lambda msg: received.append(sim.now) or [])
        network.send(0, [Envelope(0, _release())])
        sim.run()
        assert received == [0.0]
        assert network.messages_sent == 0


class TestFifoPerPair:
    def test_order_preserved_despite_random_latency(self):
        sim = Simulator()
        network = Network(
            sim, latency=Exponential(0.150), rng=derive_rng(3, "net")
        )
        received = []
        network.register(0, lambda msg: [])
        network.register(
            1, lambda msg: received.append(msg.sender) or []
        )
        for index in range(50):
            network.send(
                0, [Envelope(1, _release(sender=index))]
            )
        sim.run()
        assert received == list(range(50))

    def test_different_pairs_are_independent(self):
        sim = Simulator()
        network = Network(sim, latency=Fixed(0.1))
        received = []
        network.register(0, lambda msg: [])
        network.register(2, lambda msg: [])
        network.register(
            1, lambda msg: received.append(msg.sender) or []
        )
        network.send(0, [Envelope(1, _release(sender=100))])
        network.send(2, [Envelope(1, _release(sender=200))])
        sim.run()
        assert sorted(received) == [100, 200]


class Scripted(Distribution):
    """The latency draws, in the order the fabric will make them."""

    def __init__(self, *draws: float) -> None:
        super().__init__(sum(draws) / len(draws))
        self._draws = list(draws)

    def sample(self, rng) -> float:
        return self._draws.pop(0)


def _frame(seq: int) -> SessionMessage:
    return SessionMessage(lock_id="L", sender=0, seq=seq, payload=_release())


def _beat() -> HeartbeatMessage:
    return HeartbeatMessage(lock_id="", sender=0)


class TestDeliveryClasses:
    """The ordered stream and the datagram (``message.ordered``)."""

    def _pair(self, *draws: float, faults=None):
        sim = Simulator()
        network = Network(sim, latency=Scripted(*draws), faults=faults)
        arrivals = []
        network.register(0, lambda msg: [])
        network.register(
            1, lambda msg: arrivals.append((type(msg), sim.now)) or []
        )
        return sim, network, arrivals

    def test_a_frame_behind_a_slow_heartbeat_arrives_on_its_own_draw(self):
        sim, network, arrivals = self._pair(1.4, 0.1)
        network.send(0, [Envelope(1, _beat()), Envelope(1, _frame(0))])
        sim.run()
        assert arrivals == [
            (SessionMessage, pytest.approx(0.1)),
            (HeartbeatMessage, pytest.approx(1.4)),
        ]

    def test_a_heartbeat_behind_a_slow_frame_does_not_wait_either(self):
        sim, network, arrivals = self._pair(1.4, 0.1)
        network.send(0, [Envelope(1, _frame(0)), Envelope(1, _beat())])
        sim.run()
        assert [kind for kind, _at in arrivals] == [
            HeartbeatMessage, SessionMessage,
        ]

    def test_two_frames_stay_fifo(self):
        sim, network, arrivals = self._pair(1.4, 0.1, 0.2)
        network.send(
            0, [Envelope(1, _frame(0)), Envelope(1, _frame(1))]
        )
        network.send(0, [Envelope(1, _release())])  # any ordered type
        sim.run()
        assert arrivals == [
            (SessionMessage, pytest.approx(1.4)),
            (SessionMessage, pytest.approx(1.4)),
            (ReleaseMessage, pytest.approx(1.4)),
        ]

    def test_a_datagram_neither_reads_nor_writes_the_floor(self):
        sim, network, arrivals = self._pair(0.5, 0.1, 0.9, 0.2)
        network.send(0, [Envelope(1, _frame(0))])
        floors = dict(network._last_arrival)
        assert floors == {(0, 1): pytest.approx(0.5)}
        ack = SessionAck(lock_id="", sender=0, ack=0)
        network.send(0, [Envelope(1, ack), Envelope(1, _beat())])
        assert network._last_arrival == floors  # Not raised to 0.9...
        network.send(0, [Envelope(1, _frame(1))])
        sim.run()
        assert arrivals == [
            (SessionAck, pytest.approx(0.1)),   # ...and not clamped to 0.5.
            (SessionMessage, pytest.approx(0.5)),
            (SessionMessage, pytest.approx(0.5)),
            (HeartbeatMessage, pytest.approx(0.9)),
        ]

    def test_a_reorder_decision_and_an_unordered_type_take_one_branch(self):
        """Same draws, same pair: a frame the plan reorders and a
        heartbeat the plan leaves alone land at the same instants and
        leave the same floors behind."""

        def run(second, faults):
            sim, network, arrivals = self._pair(1.0, 0.3, 0.4, faults=faults)
            network.send(0, [Envelope(1, _frame(0))])
            network.send(0, [Envelope(1, second)])
            network.send(0, [Envelope(1, _frame(2))])
            sim.run()
            return [at for _kind, at in arrivals], network._last_arrival

        reorder_the_second = FaultPlan(
            rules=(
                FaultRule(
                    action=REORDER,
                    predicate=lambda _s, _d, message: message.seq == 1,
                ),
            ),
            seed=1,
        )
        assert run(_frame(1), reorder_the_second) == run(_beat(), None)
        assert run(_beat(), None)[0] == [
            pytest.approx(0.3), pytest.approx(1.0), pytest.approx(1.0),
        ]

    def test_sends_are_counted_by_declared_plane(self):
        sim, network, _arrivals = self._pair(0.1, 0.1, 0.1, 0.1)
        network.send(0, [
            Envelope(1, _beat()), Envelope(1, _frame(0)),
            Envelope(1, _release()),
            Envelope(1, SessionAck(lock_id="", sender=0, ack=0)),
        ])
        assert network.messages_by_plane == {
            "channel-ack": 1, "heartbeat": 1, "protocol": 2,
        }
        assert network.messages_sent == 4


class TestObservation:
    def test_observer_sees_every_wire_message(self):
        sim = Simulator()
        observed = []
        network = Network(
            sim,
            latency=Fixed(0.01),
            observer=lambda s, d, m: observed.append((s, d)),
        )
        network.register(0, lambda msg: [])
        network.register(1, lambda msg: [])
        network.send(0, [Envelope(1, _release()), Envelope(1, _release())])
        network.send(0, [Envelope(0, _release())])  # local: not observed
        sim.run()
        assert observed == [(0, 1), (0, 1)]
        assert network.messages_sent == 2

    def test_mean_latency_exposed(self):
        network = Network(Simulator(), latency=Exponential(0.150))
        assert network.mean_latency == pytest.approx(0.150)
