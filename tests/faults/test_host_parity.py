"""One host, two engines: the shared lifecycle behaves the same on both.

``ResilientSimCluster`` and ``ResilientThreadedCluster`` are bindings of
one :class:`~repro.faults.host.ResilientHost`.  This drives the same
lifecycle — crash → durable restart, join, drain, decommission — through
each binding and compares what the host records, so the shared code is
tested once per engine instead of trusted twice.
"""

from __future__ import annotations

import time

import pytest

from repro.core.modes import LockMode
from repro.faults.runtime import ResilientThreadedCluster
from repro.faults.simcluster import ResilientSimCluster
from repro.persist import MemoryPersistence
from repro.sim.engine import Process, Simulator

NODES = 4


def _lifecycle(cluster, settle):
    """The engine-neutral script; returns what the host recorded."""

    cluster.crash(2)
    view_while_down = cluster.cluster_view()
    settle()
    cluster.restart(2)
    settle()
    joiner = cluster.join_node()
    settle()
    cluster.drain_node(1)
    settle()
    cluster.crash(2)
    cluster.decommission_node(2)
    settle()
    view = cluster.cluster_view()
    return {
        "members": sorted(cluster.members),
        "joiner": joiner,
        "membership_events": [e["event"] for e in cluster.membership_log],
        "membership_keys": [sorted(e) for e in cluster.membership_log],
        "crash_keys": [sorted(e) for e in cluster.crash_log],
        "durability_keys": [sorted(e) for e in cluster.durability_log],
        "durable_boots": [e["boot"] for e in cluster.durability_log],
        "stats_keys": sorted(cluster.recovery_stats()),
        "lease_counters": (
            cluster.recovery_stats()["leases_revoked"],
            cluster.recovery_stats()["fenced_nodes"],
        ),
        "down_shape": [(n.node, n.alive) for n in view_while_down.nodes],
        "view_protocol": view.protocol,
        "view_shape": [
            (n.node, n.alive, n.recovery is not None) for n in view.nodes
        ],
        "journals": sorted(cluster.journals),
    }


def _run_sim():
    sim = Simulator()
    cluster = ResilientSimCluster(
        NODES, sim=sim, persistence=MemoryPersistence()
    )

    def warm():
        yield cluster.client(2).acquire("db", LockMode.R)
        cluster.client(2).release("db", LockMode.R)

    Process(sim, warm())
    sim.run(until=5.0)
    return _lifecycle(cluster, lambda: sim.run(until=sim.now + 20.0))


def _run_threaded():
    with ResilientThreadedCluster(
        NODES, persistence=MemoryPersistence()
    ) as cluster:
        cluster.client(2).acquire("db", LockMode.R, timeout=10.0)
        cluster.client(2).release("db", LockMode.R)
        return _lifecycle(cluster, lambda: time.sleep(0.6))


EXPECTED = {
    "members": [0, 3, 4],
    "joiner": 4,
    "membership_events": [
        "join",
        "drain-begin",
        "drained",
        "decommission-begin",
        "decommissioned",
    ],
    "membership_keys": [
        ["at", "event", "node", "sponsor"],
        ["at", "event", "node", "successor"],
        ["at", "event", "node"],
        ["at", "coordinator", "event", "node"],
        ["at", "event", "node"],
    ],
    "crash_keys": [["at", "node"], ["at", "node"]],
    "durability_keys": [["at", "boot", "node", "recovered", "rejoin"]],
    "durable_boots": [1],
    "stats_keys": [
        "app_retransmits",
        "channel_retransmits",
        "duplicates_dropped",
        "fenced_nodes",
        "leases_revoked",
        "regenerations",
        "suspect_events",
        "suspected_nodes",
    ],
    "down_shape": [(0, True), (1, True), (2, False), (3, True)],
    "view_protocol": "hierarchical",
    "view_shape": [(0, True, True), (3, True, True), (4, True, True)],
    "journals": [0, 3, 4],
}


@pytest.mark.parametrize(
    "run", [_run_sim, _run_threaded], ids=["sim", "threaded"]
)
def test_host_lifecycle_is_engine_independent(run):
    observed = run()
    # Leases are the sim binding's; the threaded one runs leaseless and
    # reports the same keys reading zero.
    lease_counters = observed.pop("lease_counters")
    if run is _run_threaded:
        assert lease_counters == (0, [])
    assert observed == EXPECTED
