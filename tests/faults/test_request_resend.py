"""A request is re-sent when its path breaks, never on a timer.

The session channel already delivers every frame to a live peer, so a
request can only be lost with a peer or a stream to it.  These tests pin
each loss event and what answers it: the origin re-sends when a peer is
suspected, restarts or leaves the view, or when the parent it gave up on
comes back; a relay parks the foreign requests its lost stream carried
and passes them on once the lock is re-homed; a deferred lease eviction
keeps the live peer's queued request.  The chaos runs at the bottom are
the first reproductions of runs that wedged once the request-retry timer
was switched off, before these events were wired.
"""

from __future__ import annotations

import pytest

from repro.core.lockspace import hashed_token_home
from repro.core.messages import RequestMessage
from repro.core.modes import LockMode
from repro.experiments.common import airline
from repro.faults.chaos import run_chaos
from repro.faults.messages import (
    HeartbeatMessage,
    OrphanReport,
    SessionAck,
    SessionMessage,
)
from repro.faults.recovery import RecoveryConfig
from repro.faults.simcluster import ResilientSimCluster
from repro.metrics.collector import MetricsCollector
from repro.sim.engine import Process, Simulator
from repro.sim.rng import Exponential
from repro.verification.invariants import CompatibilityMonitor
from repro.workload.airline import hierarchical_client
from repro.workload.spec import WorkloadSpec

from .handcrank import Fabric, HandScheduler, add_manager

LOCK = "L"
#: Suspects within two beats of silence.
QUICK = RecoveryConfig(suspect_timeout=1.0)
#: Never suspects: the test decides what is lost.
PATIENT = RecoveryConfig(suspect_timeout=1e6)


def _crank(scheduler, fabric, until, hold=lambda entry: False):
    """Advance to *until* a quarter second at a time, delivering all but
    what *hold* keeps back."""

    while scheduler.now() < until:
        scheduler.advance(scheduler.now() + 0.25)
        fabric.deliver_all(hold)


def test_a_fault_free_stack_at_defaults_keeps_rule1_and_every_client_finishes():
    """The request-retry timer re-sent requests that were only queued.

    At seed 2003 one such duplicate was answered by a token transfer
    after its origin had moved on, and the old holder then took a copy
    grant from inside its own subtree: node 10 granted W while node 7
    held IR, at t = 8.182 s, with no fault at all."""

    sim = Simulator()
    cluster = ResilientSimCluster(
        20,
        sim=sim,
        latency=Exponential(0.15),
        seed=2003,
        monitor=CompatibilityMonitor(),
        token_home=hashed_token_home(20),
    )
    spec = WorkloadSpec(
        ops_per_node=15,
        seed=2003,
        mode_mix=(
            (LockMode.IR, 0.8),
            (LockMode.R, 0.1),
            (LockMode.IW, 0.05),
            (LockMode.W, 0.05),
        ),
    )
    bodies = airline(hierarchical_client, "hier")(
        sim, cluster, spec, MetricsCollector()
    )
    processes = [Process(sim, body) for body in bodies]
    while not all(process.done.triggered for process in processes):
        assert sim.now < 120.0, "a client never finished"
        sim.run(until=sim.now + 1.0)  # A Rule 1 breach raises here.
    assert [p.error for p in processes if p.error is not None] == []
    managers = cluster.managers.values()
    assert sum(m.events["suspect"] for m in managers) == 0
    assert sum(m.app_retransmits for m in managers) == 0


def test_a_relay_passes_on_what_its_dead_parent_never_acked_once_rehomed():
    """Node 2's request went 2 -> 0 -> 1, and node 1, holding the token,
    died before acking it.  Node 2 never suspects anyone, so only the
    relay, node 0, can save the request: it parks what its abandoned
    stream carried and hands it on under the regenerated token."""

    grants = []
    scheduler, fabric = HandScheduler(), Fabric()
    for node, config in enumerate((QUICK, PATIENT, PATIENT, QUICK)):
        add_manager(scheduler, fabric, node, [0, 1, 2, 3], config, grants)
    fabric.managers[1].request(LOCK, LockMode.W)  # The token moves to 1.
    fabric.deliver(SessionMessage, SessionAck)
    assert fabric.managers[0].lockspace.automaton(LOCK).parent == 1
    fabric.managers[1].stop()
    fabric.managers[2].request(LOCK, LockMode.R)
    fabric.deliver(SessionMessage, SessionAck)
    relay = fabric.managers[0]
    forwards = [
        m.payload
        for s, d, m in fabric.log
        if (s, d) == (0, 1) and isinstance(m, SessionMessage)
    ]
    assert isinstance(forwards[-1], RequestMessage)  # Never acked.
    _crank(scheduler, fabric, 4.0)
    assert relay.detector.suspected == {1}
    _crank(scheduler, fabric, 12.0)
    assert fabric.managers[3].tokens.regenerations == [
        {"lock": LOCK, "epoch": 1, "node": 3}
    ]
    assert grants == [(1, LOCK, LockMode.W), (2, LOCK, LockMode.R)]
    assert fabric.managers[2].app_retransmits == 0


def test_the_request_a_given_up_stream_carried_is_re_sent_when_the_parent_returns():
    """Node 1 suspects its parent while its request is in flight, gives
    the stream up, and the parent answers again before any placement
    re-homes the lock: the return is the loss event's other half."""

    grants = []
    scheduler, fabric = HandScheduler(), Fabric()
    for node, config in enumerate((PATIENT, QUICK, PATIENT)):
        add_manager(scheduler, fabric, node, [0, 1, 2], config, grants)
    requester = fabric.managers[1]
    requester.request(LOCK, LockMode.R)

    def cut(entry):  # Node 0 is silent to node 1, and reports go nowhere.
        return (entry[0], entry[1]) in ((0, 1), (1, 0)) or isinstance(
            entry[2], OrphanReport
        )

    _crank(scheduler, fabric, 1.5, cut)
    assert requester.detector.suspected == {0}
    assert requester.channel.backlog() == 0  # The stream was given up.
    fabric.parked = [e for e in fabric.parked if not cut(e)]  # Lost.
    assert grants == [] and requester.app_retransmits == 0
    _crank(scheduler, fabric, 2.0, lambda e: isinstance(e[2], OrphanReport))
    assert requester.detector.suspected == set()
    assert requester.app_retransmits == 1
    assert grants == [(1, LOCK, LockMode.R)]


def test_a_deferred_lease_eviction_keeps_the_live_peers_queued_request():
    """Node 0 suspected node 1 while node 1's lease pinned its entry.
    Node 1 was alive: it released and asked for W, which queued behind
    the R held at the token.  Its next beat resolves the eviction — the
    entry goes, the request stays."""

    grants = []
    scheduler, fabric = HandScheduler(), Fabric()
    for node, config in enumerate((QUICK, PATIENT, PATIENT)):
        add_manager(
            scheduler, fabric, node, [0, 1, 2], config, grants, leased=True
        )
    token = fabric.managers[0]
    for node in (0, 1):  # Node 0's own R keeps the token there.
        fabric.managers[node].request(LOCK, LockMode.R)
        fabric.deliver(SessionMessage, SessionAck)
    _crank(scheduler, fabric, 1.0)  # The leases are advertised.
    silent = lambda entry: entry[:2] == (1, 0)  # noqa: E731
    _crank(scheduler, fabric, 2.5, silent)
    assert token.detector.suspected == {1}
    assert token.leases.defers(1)
    fabric.parked = [e for e in fabric.parked if not silent(e)]
    holder = fabric.managers[1]
    holder.release(LOCK, LockMode.R)
    holder.request(LOCK, LockMode.W)
    fabric.deliver(SessionMessage, only_from=1)
    automaton = token.lockspace.automaton(LOCK)
    assert [q.origin for q in automaton.queued_requests] == [1]
    # Only node 1's beats to node 0 move.
    _crank(
        scheduler,
        fabric,
        3.0,
        lambda e: not (silent(e) and isinstance(e[2], HeartbeatMessage)),
    )
    assert not token.leases.defers(1)
    assert [q.origin for q in automaton.queued_requests] == [1]
    token.release(LOCK, LockMode.R)
    fabric.deliver_all(lambda entry: False)
    assert grants[-1] == (1, LOCK, LockMode.W)


@pytest.mark.parametrize(
    "plan, seed",
    [
        # A drain loses node 3's W on lock-0 with no suspicion at all.
        ("graceful-drain", 3),
        # The crash loses nodes 2 and 4's requests on lock-1, queued at
        # node 0, which was neither's parent.
        ("token-crash", 7),
        ("partition", 1),
        ("smoke", 15),
    ],
)
def test_a_lost_request_is_re_sent_without_a_timer(plan, seed):
    verdict = run_chaos(plan, seed=seed)
    assert verdict.ok, verdict.data["cluster_audit"]["findings"]
    assert verdict.data["invariants"]["rule1_violations"] == 0
