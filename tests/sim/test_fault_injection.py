"""Fault injection: demonstrating the protocol's delivery assumptions.

The paper's protocol (like its TCP/LAN testbed) assumes reliable,
per-pair-FIFO delivery; there is no retransmission or token-regeneration
machinery in the plain clusters.  These tests *demonstrate* that boundary
instead of leaving it implicit: dropping a protocol message visibly wedges
the affected request and the harness's deadlock detection reports it,
while unaffected traffic keeps flowing.  (The resilient clusters in
:mod:`repro.faults` are the ones that survive this — see tests/faults/.)
"""

from __future__ import annotations

import pytest

from repro.core.messages import GrantMessage, TokenMessage
from repro.core.modes import LockMode
from repro.errors import SimulationError
from repro.faults.plan import DROP, FaultPlan, FaultRule
from repro.sim.cluster import SimHierarchicalCluster
from repro.sim.engine import Process, Simulator, Timeout, run_processes
from repro.sim.network import Network
from repro.sim.rng import Fixed


def _cluster_with_loss(num_nodes: int, loss_filter) -> SimHierarchicalCluster:
    sim = Simulator()
    cluster = SimHierarchicalCluster(num_nodes, sim=sim, latency=Fixed(0.01))
    # Swap in a lossy network wired to the same handlers.
    lossy = Network(
        sim,
        latency=Fixed(0.01),
        faults=FaultPlan(
            rules=(FaultRule(action=DROP, predicate=loss_filter),)
        ),
    )
    for node_id, lockspace in cluster.lockspaces.items():
        lossy.register(node_id, lockspace.handle)
    cluster.network = lossy
    return cluster


class TestMessageLoss:
    def test_lost_grant_wedges_the_request(self):
        dropped = {"count": 0}

        def drop_first_grant(sender, dest, message):
            if isinstance(message, GrantMessage) and dropped["count"] == 0:
                dropped["count"] += 1
                return True
            return False

        cluster = _cluster_with_loss(3, drop_first_grant)
        sim = cluster.sim
        cluster.client(0).acquire("t", LockMode.R)  # anchor the token

        def requester():
            yield cluster.client(1).acquire("t", LockMode.R)

        with pytest.raises(SimulationError, match="blocked"):
            run_processes(sim, [requester()])
        assert dropped["count"] == 1
        assert cluster.network.messages_dropped == 1

    def test_lost_token_wedges_the_system(self):
        def drop_tokens(sender, dest, message):
            return isinstance(message, TokenMessage)

        cluster = _cluster_with_loss(2, drop_tokens)
        sim = cluster.sim

        def writer():
            yield cluster.client(1).acquire("t", LockMode.W)

        with pytest.raises(SimulationError, match="blocked"):
            run_processes(sim, [writer()])
        # The token is gone: no automaton has it any more.
        holders = [
            n
            for n, space in cluster.lockspaces.items()
            if space.automaton("t").has_token
        ]
        assert holders == []

    def test_unrelated_locks_unaffected_by_the_loss(self):
        def drop_grants_for_t(sender, dest, message):
            return (
                isinstance(message, (GrantMessage, TokenMessage))
                and message.lock_id == "t"
            )

        cluster = _cluster_with_loss(3, drop_grants_for_t)
        sim = cluster.sim
        completed = []

        def doomed():
            yield cluster.client(1).acquire("t", LockMode.W)

        def healthy():
            yield cluster.client(2).acquire("other", LockMode.W)
            completed.append("other")
            yield Timeout(sim, 0.01)
            cluster.client(2).release("other", LockMode.W)

        Process(sim, doomed())
        Process(sim, healthy())
        sim.run()
        assert completed == ["other"]

    def test_no_loss_filter_means_no_drops(self):
        cluster = _cluster_with_loss(2, lambda s, d, m: False)

        def writer():
            yield cluster.client(1).acquire("t", LockMode.W)
            cluster.client(1).release("t", LockMode.W)

        run_processes(cluster.sim, [writer()])
        assert cluster.network.messages_dropped == 0

