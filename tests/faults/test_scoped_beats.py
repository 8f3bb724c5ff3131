"""Heartbeats scoped to what a node depends on, with promised gaps.

Each tick a node beats its dependencies (the parent and the copyset
children of each lock it holds, awaits or queues a request on, and the
peers its channel awaits an ack from), the peers whose newest beat said
they depend on it, the peers its channel owes an ack, and a rotating
slice of the rest — so that every peer hears from it once per ``sweep``
ticks.  Every beat declares the gap to the sender's next one.  A beat
to a peer that depends on the sender promises the next tick and echoes
the newest beat the sender applied from that peer; the peer counts the
promise only while it depends on the sender, and only if the echo names
the beat that opened the dependency or a later one.  So a sender thins
out the moment it hears "not any more".
"""

from __future__ import annotations

import random

import pytest

from repro.core.modes import LockMode
from repro.faults.chaos import run_chaos
from repro.faults.messages import HeartbeatMessage, SessionMessage
from repro.faults.recovery import RecoveryConfig, RecoveryManager
from repro.faults.simcluster import ResilientSimCluster
from repro.sim.engine import Process, Timeout
from repro.sim.network import Network

from .handcrank import build

DEFAULTS = RecoveryConfig()


def _crank(
    scheduler, fabric, until, step=0.25, lose=lambda entry: False,
    hold=lambda entry: False,
):
    """Advance to *until* a *step* at a time, delivering every parked
    message but those *lose* drops and *hold* keeps back; yields after
    each step."""

    while scheduler.now() < until:
        scheduler.advance(scheduler.now() + step)
        fabric.parked = [entry for entry in fabric.parked if not lose(entry)]
        fabric.deliver_all(hold)
        yield scheduler.now()


def _depend(manager, peers):
    """Make *manager* depend on exactly *peers* from now on."""

    manager.dependencies = lambda: set(peers)


#: Ticks per sweep at the defaults: ``suspect_timeout / heartbeat_interval``.
SWEEP = 5


def _from(sender, dest):
    """A predicate matching the heartbeats *sender* sends *dest*."""

    return lambda entry: entry[:2] == (sender, dest) and isinstance(
        entry[2], HeartbeatMessage
    )


def test_a_per_tick_promise_that_predates_the_dependency_is_not_adopted():
    # Node 1 depends on node 0, stops and depends again, and node 0
    # hears neither change: it still beats node 1 every tick, echoing a
    # beat from before the new dependency opened.  Node 1 holds it to
    # its slice of the sweep until an echo names the new dependency.
    scheduler, fabric = build(2, DEFAULTS)
    child = fabric.managers[1]
    _depend(child, {0})
    _settle(scheduler, fabric, 3.0)
    assert child.detector.gap(0) == 1
    lose = _from(1, 0)
    _depend(child, set())
    for _ in _crank(scheduler, fabric, 3.5, lose=lose):
        pass
    assert child.detector.gap(0) == SWEEP
    _depend(child, {0})
    sent = len(fabric.log)
    for _ in _crank(scheduler, fabric, 6.0, lose=lose):
        assert child.detector.gap(0) == SWEEP
    opened = child._opened[0]
    stale = [e[2] for e in fabric.log[sent:] if _from(0, 1)(e)]
    assert stale and all(m.gap == 1 and m.echo < opened for m in stale)
    # Node 0 hears "again": its next beat echoes it, and counts.
    _settle(scheduler, fabric, 1.5)
    assert child.detector.gap(0) == 1
    assert fabric.sent(HeartbeatMessage, sender=0)[-1].echo >= opened
    assert child.suspect_log == []


@pytest.mark.parametrize("lost", ["alone", "and_after"])
def test_losing_the_not_any_more_beat_suspects_nobody(lost):
    # Node 1 depends on node 0 for 3 s, then stops and at once holds
    # node 0 to its slice of the sweep.  The beat that says so is lost,
    # alone or with every beat node 1 sends after it.  Node 0 keeps
    # beating node 1 every tick until a later beat says so again (or
    # for good), which costs beats but no suspicion.
    scheduler, fabric = build(2, DEFAULTS)
    child = fabric.managers[1]
    _depend(child, {0})
    _settle(scheduler, fabric, 3.0)
    assert child.detector.gap(0) == 1
    _depend(child, set())
    dropped = []

    def lose(entry) -> bool:
        if not _from(1, 0)(entry) or (dropped and lost == "alone"):
            return False
        dropped.append(entry[2])
        return True

    for _ in _crank(scheduler, fabric, 20.0, lose=lose):
        assert child.detector.gap(0) == (1 if child._opened else SWEEP)
    assert not dropped[0].want
    assert child.suspect_log == []
    assert child.events["suspect"] == 0
    if lost == "alone":
        # Its next slice says "not any more" again, and node 0 thins out.
        assert 1 not in fabric.managers[0]._wanters
        assert fabric.managers[0].suspect_log == []
        assert not _beaten_each_tick(fabric, 0, 1)
    else:
        assert 1 in fabric.managers[0]._wanters
        assert _beaten_each_tick(fabric, 0, 1)


def test_a_stale_not_any_more_does_not_outrun_the_promise_it_breaks():
    # Node 1 stops depending on node 0 and at once depends again.  The
    # beat that said "not any more" is overtaken by two seconds, and the
    # beats that say "again" are lost for 4.5 s.  Meanwhile node 1 trusts
    # node 0's per-tick promise.  When "not any more" arrives, node 0
    # announces the longer gap before it thins out, so node 1 never
    # suspects it.  (A receiver that lengthened its own tolerance when it
    # stopped depending, with senders that thin out at once, suspects
    # node 0 here: nothing tells it the per-tick promise lapsed.)
    scheduler, fabric = build(2, DEFAULTS)
    child = fabric.managers[1]
    _depend(child, {0})
    for _ in _crank(scheduler, fabric, 3.0):
        pass
    _depend(child, set())
    stale = sent = released = None
    while scheduler.now() < 20.0:
        if sent is not None and scheduler.now() == sent + 2.0:
            fabric.parked.append(stale)
            released = len(fabric.log)
        scheduler.advance(scheduler.now() + 0.25)
        for entry in [e for e in fabric.parked if e[0] == 1]:
            beat = entry[2]
            if not isinstance(beat, HeartbeatMessage):
                continue
            if sent is None and not beat.want:
                stale, sent = entry, scheduler.now()
                fabric.parked.remove(entry)
                _depend(child, {0})
            elif beat.want and sent is not None:
                if scheduler.now() < sent + 4.5:
                    fabric.parked.remove(entry)  # "again", lost
        fabric.deliver_all(lambda entry: False)
        assert child.suspect_log == [], scheduler.now()
    # Node 0 did thin out, and beats node 1 every tick again once it
    # hears "again".
    gaps = [
        message.gap
        for origin, _dest, message in fabric.log[released:]
        if origin == 0 and isinstance(message, HeartbeatMessage)
    ]
    assert max(gaps) > 1 and gaps[-1] == 1


def test_a_coordinator_that_does_not_depend_on_a_member_still_suspects_it():
    scheduler, fabric = build(5, DEFAULTS)
    coordinator = fabric.managers[4]
    sweep = coordinator.sweep
    for _ in _crank(scheduler, fabric, 5.0):
        pass
    assert coordinator.detector.gap(2) == sweep   # nobody depends on 2
    fabric.managers[2].stop()
    heard = coordinator.detector.last_seen(2)
    for now in _crank(scheduler, fabric, 15.0):
        if coordinator.detector.is_suspected(2):
            break
    bound = DEFAULTS.suspect_timeout + (sweep - 1) * DEFAULTS.heartbeat_interval
    assert coordinator.detector.tolerance(2) == bound
    # Polled once per interval: suspected at the first tick past it.
    assert bound <= now - heard <= bound + DEFAULTS.heartbeat_interval
    assert 4 in coordinator.live() and 2 not in coordinator.live()


# -- which peers are dependencies -----------------------------------------


LOCK = "L"


def _beaten_each_tick(fabric, sender, dest, ticks=SWEEP):
    """Whether *sender*'s last *ticks* ticks each beat *dest*."""

    seqs = [
        message.seq
        for origin, to, message in fabric.log
        if (origin, to) == (sender, dest)
        and isinstance(message, HeartbeatMessage)
    ]
    last = fabric.managers[sender]._beats_sent
    return seqs[-ticks:] == list(range(last - ticks + 1, last + 1))


def _settle(scheduler, fabric, seconds=4.0, hold=lambda entry: False):
    for _ in _crank(scheduler, fabric, scheduler.now() + seconds, hold=hold):
        pass


def test_an_idle_locks_parent_is_not_beaten_every_tick():
    # Node 1 took the token and gave its hold up: node 0's parent
    # pointer to it stays, but nothing node 0 does needs node 1.
    scheduler, fabric = build(3, DEFAULTS)
    home, taker = fabric.managers[0], fabric.managers[1]
    taker.request(LOCK, LockMode.R)
    _settle(scheduler, fabric)
    taker.release(LOCK, LockMode.R)
    _settle(scheduler, fabric, 2 * SWEEP * DEFAULTS.heartbeat_interval)
    automaton = home.lockspace.automaton(LOCK)
    assert automaton.parent == 1 and automaton.is_idle()
    assert home.dependencies() == set()
    assert not _beaten_each_tick(fabric, 0, 1)
    assert not _beaten_each_tick(fabric, 1, 0)
    assert home.detector.gap(1) == SWEEP and taker.detector.gap(0) == SWEEP


def _copy_at_1(scheduler, fabric):
    """Node 0 holds R at the token and node 1 an R copy under it."""

    fabric.managers[0].request(LOCK, LockMode.R)
    fabric.managers[1].request(LOCK, LockMode.R)
    _settle(scheduler, fabric)
    assert fabric.managers[1].lockspace.automaton(LOCK).parent == 0


def test_the_path_of_a_held_pending_or_queueing_lock_is_beaten_every_tick():
    scheduler, fabric = build(3, DEFAULTS)
    root, reader, writer = (fabric.managers[n] for n in range(3))
    _copy_at_1(scheduler, fabric)
    # Held: the token holder depends on its copyset child, the child on
    # its parent.
    assert root.dependencies() == {1} and reader.dependencies() == {0}
    assert writer.dependencies() == set()
    assert _beaten_each_tick(fabric, 0, 1) and _beaten_each_tick(fabric, 1, 0)
    assert not _beaten_each_tick(fabric, 2, 0)
    # Pending: the writer waits on node 0.  Queueing: node 0 gives its
    # own hold up but queues the W until its child releases.
    writer.request(LOCK, LockMode.W)
    root.release(LOCK, LockMode.R)
    _settle(scheduler, fabric)
    automaton = root.lockspace.automaton(LOCK)
    assert not automaton.held_modes and automaton.queued_requests
    assert writer.lockspace.automaton(LOCK).pending_mode is LockMode.W
    assert root.dependencies() == {1} and writer.dependencies() == {0}
    assert _beaten_each_tick(fabric, 0, 1) and _beaten_each_tick(fabric, 2, 0)
    assert _beaten_each_tick(fabric, 0, 2)
    assert root.detector.gap(1) == 1 and writer.detector.gap(0) == 1


def test_a_peer_with_unacked_frames_is_beaten_every_tick():
    # Node 1's release to node 0 is held back: node 1 is idle, yet it
    # watches node 0 until the frame is acked.
    scheduler, fabric = build(3, DEFAULTS)
    child = fabric.managers[1]
    _copy_at_1(scheduler, fabric)
    child.release(LOCK, LockMode.R)

    def held(entry) -> bool:
        return entry[:2] == (1, 0) and isinstance(entry[2], SessionMessage)

    _settle(scheduler, fabric, hold=held)
    assert child.lockspace.automaton(LOCK).is_idle()
    assert child.channel.awaiting() == {0}
    assert child.dependencies() == {0}
    assert _beaten_each_tick(fabric, 1, 0)
    _settle(scheduler, fabric)
    assert child.channel.awaiting() == set()
    assert child.dependencies() == set()


@pytest.mark.parametrize(
    "plan, seed", [("smoke", 43), ("partition", 40), ("partition", 65),
                   ("partition", 79)]
)
def test_a_relay_watches_the_hop_it_forwarded_into_until_acked(plan, seed):
    # Without the channel's peers among the dependencies, a relay on an
    # idle path heard its next hop only through the sweep: a request
    # re-sent to it at its sender's suspicion of a crashed hop stayed
    # forwarded into that hop, and each of these runs wedged.
    verdict = run_chaos(plan=plan, seed=seed)
    assert verdict.ok, verdict.data


# -- a fault-free 40-node cluster ----------------------------------------


def _run_forty(monkeypatch, until=20.0):
    """40 nodes, each cycling through random locks for *until* seconds.
    Returns the cluster, each heartbeat send as ``(time, sender, dest)``,
    each tick as ``(node, allowed, beaten)`` and the grants made."""

    sends, ticks, grants = [], [], []
    original_send, original_tick = Network.send, RecoveryManager._heartbeat_tick

    def spy_send(self, sender, envelopes):
        for envelope in envelopes:
            if isinstance(envelope.message, HeartbeatMessage):
                sends.append((self._sim.now, sender, envelope.dest))
        return original_send(self, sender, envelopes)

    def spy_tick(self):
        # What the tick may beat, read before it runs: its dependencies
        # and the peers it has just stopped depending on, its wanters,
        # the peers owed an ack and its slice of the sweep — or everyone,
        # in its first sweep, or when the beat carries lease rows or
        # follows one that did.
        seq, sweep = self._beats_sent + 1, self.sweep
        wanters = set(self._wanters)
        every = (
            seq <= sweep
            or self._advertised
            or bool(self.leases.own.export())
        )
        deps, acks = self.dependencies(), self.channel.take_acks()
        closed = set(self._opened) - deps
        beaten, send = [], self._transport_send
        self.channel.take_acks = lambda: acks
        self._transport_send = lambda envelopes: (
            beaten.extend(e.dest for e in envelopes), send(envelopes)
        )
        try:
            original_tick(self)
        finally:
            del self.channel.take_acks
            self._transport_send = send
        peers = set(self._peers())
        sliced = {p for p in peers if (seq + p) % sweep == 0}
        allowed = peers if every else (
            (deps | closed | wanters | set(acks) | sliced) & peers
        )
        ticks.append((self.node_id, allowed, beaten))

    monkeypatch.setattr(Network, "send", spy_send)
    monkeypatch.setattr(RecoveryManager, "_heartbeat_tick", spy_tick)
    cluster = ResilientSimCluster(40, seed=11)
    sim, rng = cluster.sim, random.Random(11)

    def client(node):
        while True:
            yield Timeout(sim, rng.uniform(0.2, 1.0))
            lock = f"lock-{rng.randrange(8)}"
            mode = rng.choice([LockMode.R, LockMode.W, LockMode.IR])
            yield cluster.client(node).acquire(lock, mode)
            grants.append((node, lock, mode))
            yield Timeout(sim, rng.uniform(0.05, 0.3))
            cluster.client(node).release(lock, mode)

    for node in range(40):
        Process(sim, client(node))
    sim.run(until=until)
    return cluster, sends, ticks, grants


@pytest.fixture(scope="module")
def forty():
    """One :func:`_run_forty` run, shared by the checks below."""

    with pytest.MonkeyPatch.context() as monkeypatch:
        return _run_forty(monkeypatch)


def test_a_fault_free_forty_node_cluster_suspects_nobody(forty):
    cluster, _sends, _ticks, grants = forty
    assert len(grants) > 200
    assert {node for node, _lock, _mode in grants} == set(range(40))
    for manager in cluster.managers.values():
        assert manager.events["suspect"] == 0
        assert manager.suspect_log == []


def test_every_node_hears_from_every_peer_once_per_sweep(forty):
    cluster, sends, _ticks, _grants = forty
    interval = cluster.config.heartbeat_interval
    sweep = cluster.managers[0].sweep
    last = {}
    widest = 0.0
    for now, sender, dest in sends:
        widest = max(widest, now - last.get((sender, dest), 0.0))
        last[sender, dest] = now
    assert len(last) == 40 * 39
    assert widest <= sweep * interval + 1e-9


def test_no_tick_beats_beyond_what_the_node_depends_on(forty):
    # The guard against a silent return to all-pairs beating.
    _cluster, _sends, ticks, _grants = forty
    assert len(ticks) >= 40 * 40
    for node, allowed, beaten in ticks:
        assert set(beaten) <= allowed, node
        assert len(set(beaten)) == len(beaten)
    beats = sum(len(beaten) for _node, _allowed, beaten in ticks)
    assert beats < 0.7 * 39 * len(ticks)
