"""One host, two engines: the shared lifecycle behaves the same on both.

``ResilientSimCluster`` and ``ResilientThreadedCluster`` are bindings of
one :class:`~repro.faults.host.ResilientHost`.  This drives the same
lifecycle — crash → durable restart, join, drain, decommission — through
each binding and compares what the host records — lease counters and
the journaled sessions included — so the shared code is tested once per
engine instead of trusted twice.  Each engine has one
hierarchical client, whichever family's binding hands it out; the
bare-only calls are refused by name on a resilient host; and both
families derive from one host base, each writing its client calls once.
"""

from __future__ import annotations

import time

import pytest

from repro.core.modes import LockMode
from repro.errors import ConfigurationError
from repro.faults.runtime import ResilientThreadedCluster
from repro.faults.simcluster import ResilientSimCluster
from repro.persist import MemoryPersistence, recover_node_state
from repro.runtime.cluster import (
    BlockingLockClient,
    ThreadedHierarchicalCluster,
)
from repro.services.sessions import SESSIONS_JOURNAL_KEY
from repro.sim.cluster import (
    HierClient,
    SimHierarchicalCluster,
    SimNaimiCluster,
    SimRaymondCluster,
)
from repro.sim.engine import Process, Simulator

NODES = 4


def _lifecycle(cluster, settle, persistence):
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
    state, _report = recover_node_state(persistence.store_for(2))
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
        # Node 2's warm-up grant was leased, so its session is journaled.
        "sessions_journaled": SESSIONS_JOURNAL_KEY in state,
    }


def _run_sim():
    sim = Simulator()
    persistence = MemoryPersistence()
    cluster = ResilientSimCluster(NODES, sim=sim, persistence=persistence)

    def warm():
        yield cluster.client(2).acquire("db", LockMode.R)
        cluster.client(2).release("db", LockMode.R)

    Process(sim, warm())
    sim.run(until=5.0)
    return _lifecycle(
        cluster, lambda: sim.run(until=sim.now + 20.0), persistence
    )


def _run_threaded():
    persistence = MemoryPersistence()
    with ResilientThreadedCluster(NODES, persistence=persistence) as cluster:
        cluster.client(2).acquire("db", LockMode.R, timeout=10.0)
        cluster.client(2).release("db", LockMode.R)
        return _lifecycle(cluster, lambda: time.sleep(0.6), persistence)


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
    "lease_counters": (0, []),
    "sessions_journaled": True,
}


@pytest.mark.parametrize(
    "run", [_run_sim, _run_threaded], ids=["sim", "threaded"]
)
def test_host_lifecycle_is_engine_independent(run):
    assert run() == EXPECTED


#: Every public cluster class, bare and resilient, on both engines.
PUBLIC_CLUSTERS = (
    SimHierarchicalCluster,
    SimNaimiCluster,
    SimRaymondCluster,
    ThreadedHierarchicalCluster,
    ResilientSimCluster,
    ResilientThreadedCluster,
)


@pytest.mark.parametrize(
    "bare, resilient, client_class",
    [
        (SimHierarchicalCluster, ResilientSimCluster, HierClient),
        (
            ThreadedHierarchicalCluster,
            ResilientThreadedCluster,
            BlockingLockClient,
        ),
    ],
    ids=["sim", "threaded"],
)
def test_one_client_class_per_engine(bare, resilient, client_class):
    """Both families' bindings of one engine hand out the same client."""

    clusters = [bare(2), resilient(2)]
    try:
        assert [type(c.client(1)) for c in clusters] == [client_class] * 2
    finally:
        for cluster in clusters:
            getattr(cluster, "shutdown", lambda: None)()


@pytest.mark.parametrize(
    "resilient, calls",
    [
        (ResilientSimCluster, {"upgrade": ("x",)}),
        (
            ResilientThreadedCluster,
            {
                "attempt": ("x", LockMode.R),
                "upgrade": ("x",),
                "downgrade": ("x", LockMode.W, LockMode.R),
            },
        ),
    ],
    ids=["sim", "threaded"],
)
def test_bare_only_calls_are_refused_by_name(resilient, calls):
    """A bare-only client call on a resilient host raises a
    :class:`ConfigurationError` naming the call, and touches no lock."""

    cluster = resilient(2)
    try:
        for call, args in calls.items():
            refused = rf"{call}\(\) is a bare-host call"
            with pytest.raises(ConfigurationError, match=refused):
                getattr(cluster.client(1), call)(*args)
        assert not any(
            space.existing("x") for space in cluster.lockspaces.values()
        )
    finally:
        getattr(cluster, "shutdown", lambda: None)()


def _definers(name):
    return {
        cls
        for cluster in PUBLIC_CLUSTERS
        for cls in cluster.__mro__
        if name in vars(cls)
    }


def test_host_bookkeeping_and_client_calls_are_written_once():
    """Both families share one host base, and each family writes its
    client call path once, whatever engine binds it."""

    for name in (
        "client",
        "_record_request",
        "_record_grant",
        "_record_release",
        "_log_membership",
        "cluster_view",
    ):
        assert [c.__name__ for c in _definers(name)] == ["_Host"], name
    for name in ("_submit_request", "_submit_release"):
        assert sorted(c.__name__ for c in _definers(name)) == [
            "ResilientHost",
            "_ExclusiveCluster",
            "_HierarchicalCluster",
        ], name
