"""Quiet heartbeats kept off the simulator's heap.

A heartbeat whose delivery could only note life is kept by its
receiver's :class:`~repro.faults.recovery.RecoveryManager` instead of
becoming a simulator event (``RecoveryManager.absorb``), folded once its
slot has passed, and handed back to the fabric — into the slot its send
reserved — whenever the receiver is about to change what made it quiet.
These tests hold a keeping run against a reference run whose fabric
keeps nothing: every observable must agree, only the event count drops.
"""

from __future__ import annotations

import pytest

from repro.faults import chaos
from repro.faults.host import ResilientHost
from repro.faults.messages import HeartbeatMessage
from repro.faults.recovery import RecoveryManager
from repro.faults.simcluster import ResilientSimCluster
from repro.membership.messages import ViewInstall
from repro.sim.network import Network
from repro.sim.rng import Fixed, Uniform

#: (plan, durable): the fault plans that reach every release point —
#: suspicion (partition, token-crash), view installs and forgotten peers
#: (rolling-join, kill-and-replace), a stopped receiver (token-crash,
#: kill-and-replace) — and the fabric's drop / duplicate / reorder.
PLANS = [
    ("none", False),
    ("drop1", False),
    ("dup1", False),
    ("jitter", False),
    ("partition", False),
    ("token-crash", True),
    ("rolling-join", False),
    ("kill-and-replace", False),
]


def _keep_nothing(mp: pytest.MonkeyPatch) -> None:
    """The reference fabric: no node is offered any datagram."""

    mp.setattr(Network, "attach_absorber", lambda self, node, absorb: None)


def _chaos_run(plan: str, seed: int, durable: bool, keep: bool):
    clusters, grants = [], []

    class Spy(ResilientSimCluster):
        def __init__(self, *args, **kwargs) -> None:
            super().__init__(*args, **kwargs)
            clusters.append(self)

    record_grant = ResilientHost._record_grant

    def spy_grant(self, node, lock_id, mode) -> None:
        grants.append((self.scheduler.now(), node, lock_id, str(mode)))
        record_grant(self, node, lock_id, mode)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(chaos, "ResilientSimCluster", Spy)
        mp.setattr(ResilientHost, "_record_grant", spy_grant)
        if not keep:
            _keep_nothing(mp)
        verdict = chaos.run_chaos(plan, seed=seed, durable=durable)
    (cluster,) = clusters
    fingerprint = {
        "verdict": verdict.data,
        "grants": grants,
        "labels": cluster.network.messages_by_label,
        "dropped": cluster.network.messages_dropped,
        "managers": {
            node: (
                list(manager.suspect_log),
                dict(manager.events),
                manager.leases.renewals_sent,
                manager.leases.renewals_received,
            )
            for node, manager in sorted(cluster.managers.items())
        },
        "wal": {
            node: journal.stats()
            for node, journal in sorted(cluster.journals.items())
        },
    }
    return fingerprint, cluster.sim.events_processed


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("plan,durable", PLANS)
def test_keeping_quiet_beats_changes_nothing_but_the_event_count(
    plan, durable, seed
):
    kept, kept_events = _chaos_run(plan, seed, durable, keep=True)
    reference, reference_events = _chaos_run(plan, seed, durable, keep=False)
    assert kept["grants"], "the workload granted nothing"
    assert kept == reference
    assert kept_events < reference_events


# -- one hand-built case per release point ------------------------------


def _run(mp, act, at, until, latency, keep=True):
    """A 3-node cluster driven to *until*, with *act(cluster)* run in an
    event at *at*.  Returns the cluster, every heartbeat the fabric
    delivered as ``(slot, dest, beat)`` and every beat kept as
    ``(sent_at, slot, dest, beat)``."""

    delivered, kept = [], []
    deliver, absorb = Network._deliver, RecoveryManager.absorb

    def spy_deliver(self, sender, envelope, hop=None) -> None:
        if isinstance(envelope.message, HeartbeatMessage):
            delivered.append((self.cursor(), envelope.dest, envelope.message))
        deliver(self, sender, envelope, hop)

    def spy_absorb(self, beat, slot) -> bool:
        if absorb(self, beat, slot):
            kept.append((self.now(), slot, self.node_id, beat))
            return True
        return False

    mp.setattr(Network, "_deliver", spy_deliver)
    mp.setattr(RecoveryManager, "absorb", spy_absorb)
    if not keep:
        _keep_nothing(mp)
    cluster = ResilientSimCluster(3, latency=latency, seed=0)
    sim = cluster.sim
    sim.schedule(at, lambda: act(cluster))
    sim.run(until=until)
    slots = [slot for slot, _dest, _beat in delivered]
    assert slots == sorted(slots), "a released beat ran out of slot order"
    return cluster, delivered, kept


def _in_flight(kept, at, dest, sender=None):
    """Beats to *dest* (from *sender*) kept before *at*, due after it."""

    return [
        (slot, beat)
        for sent_at, slot, node, beat in kept
        if node == dest and sent_at < at < slot[0]
        and (sender is None or beat.sender == sender)
    ]


def _assert_released(delivered, flight, dest) -> None:
    assert flight, "no beat was in flight at the release point"
    arrived = {(slot, node, beat) for slot, node, beat in delivered}
    for slot, beat in flight:
        assert (slot, dest, beat) in arrived


def _states(cluster):
    return {
        node: (
            list(manager.suspect_log),
            dict(manager.events),
            manager.membership.view.epoch,
            [at for at, _install in manager.membership.installs],
            manager.leases.remote.mirrors(1),
        )
        for node, manager in sorted(cluster.managers.items())
    }


def _both(mp, act, at, until, latency):
    with mp.context() as kept_mp:
        run = _run(kept_mp, act, at, until, latency)
    with mp.context() as ref_mp:
        reference, _delivered, _kept = _run(
            ref_mp, act, at, until, latency, keep=False
        )
    cluster = run[0]
    assert _states(cluster) == _states(reference)
    assert cluster.network.messages_dropped == (
        reference.network.messages_dropped
    )
    assert cluster.sim.events_processed < reference.sim.events_processed
    return run


def test_suspecting_the_sender_releases_its_beats(monkeypatch):
    # Every beat takes 5 s, so each node suspects both peers at its 4.5 s
    # failure tick (the suspect timeout plus the gap a peer just met is
    # promised) while their first beats (kept at 0 s) are in flight;
    # delivered, they un-suspect the peers.
    cluster, delivered, kept = _both(
        monkeypatch, lambda cluster: None, 0.0, 12.0, Fixed(5.0)
    )
    _assert_released(delivered, _in_flight(kept, 4.5, 0, sender=1), 0)
    assert cluster.managers[0].events["unsuspect"] == 2


def test_mirroring_the_senders_leases_releases_its_beats(monkeypatch):
    def mirror(cluster):
        manager = cluster.managers[0]
        with manager.mutex:
            manager.leases.on_heartbeat(
                HeartbeatMessage(
                    lock_id="", sender=1, leases=(("lock-0", "W", 1, 1),)
                )
            )

    cluster, delivered, kept = _both(
        monkeypatch, mirror, 1.2, 2.0, Uniform(0.05, 0.45)
    )
    _assert_released(delivered, _in_flight(kept, 1.2, 0, sender=1), 0)
    # The released beat advertised no lease: delivered, it ended the mirror.
    assert not cluster.managers[0].leases.remote.mirrors(1)


@pytest.mark.parametrize("how", ["install", "adopt"])
def test_a_new_view_releases_every_beat(monkeypatch, how):
    def change_view(cluster):
        membership = cluster.managers[0].membership
        with cluster.managers[0].mutex:
            if how == "install":
                membership.install(
                    cluster.managers[0].control(
                        ViewInstall, epoch=1, members=(0, 1, 2)
                    )
                )
            else:
                membership.adopt_view({"epoch": 1, "members": [0, 1, 2]})

    cluster, delivered, kept = _both(
        monkeypatch, change_view, 1.2, 2.0, Uniform(0.05, 0.45)
    )
    _assert_released(delivered, _in_flight(kept, 1.2, 0), 0)
    # Delivered, the behind-epoch beats caught their senders up at once.
    assert [m.membership.view.epoch for m in cluster.managers.values()] == [
        1, 1, 1
    ]


def test_forgetting_the_sender_releases_its_beats(monkeypatch):
    def forget(cluster):
        manager = cluster.managers[0]
        with manager.mutex:
            manager.forget_peer(1)

    _cluster, delivered, kept = _both(
        monkeypatch, forget, 1.2, 2.0, Uniform(0.05, 0.45)
    )
    _assert_released(delivered, _in_flight(kept, 1.2, 0, sender=1), 0)


def test_a_crashed_receiver_releases_every_beat(monkeypatch):
    cluster, delivered, kept = _both(
        monkeypatch, lambda cluster: cluster.crash(0), 1.2, 2.0,
        Uniform(0.05, 0.45),
    )
    flight = _in_flight(kept, 1.2, 0)
    _assert_released(delivered, flight, 0)
    # A beat that had arrived unfolded is folded, not dropped: sent at the
    # 1.0 s tick, due before the crash, with no read of it in between.
    assert any(
        node == 0 and sent_at == 1.0 and slot[0] < 1.2
        for sent_at, slot, node, _beat in kept
    )
    assert cluster.network.messages_dropped >= len(flight)
