"""The bare clusters' quiescent audit is a pure read.

``assert_quiescent_invariants`` checks every member's state of every
touched lock.  A member that never touched a lock is in its birth state,
so the audit checks a throwaway birth instance for it instead of
creating (and keeping) an automaton.  These tests pin both halves: the
audit leaves every lockspace exactly as it found it, and its verdict is
the one a materializing audit gives, on healthy and corrupted states.
"""

from __future__ import annotations

import pytest

from benchmarks.ledger import workloads
from repro.core.modes import LockMode
from repro.errors import InvariantViolation
from repro.obs.flightrec import attach_recorders
from repro.sim.cluster import (
    SimHierarchicalCluster,
    SimNaimiCluster,
    SimRaymondCluster,
)
from repro.sim.engine import Process, Timeout, run_processes
from repro.sim.rng import Fixed

PROTOCOLS = ("hierarchical", "naimi", "raymond")


def _build(protocol, latency=None):
    if protocol == "hierarchical":
        return SimHierarchicalCluster(4, latency=latency, seed=1)
    if protocol == "naimi":
        return SimNaimiCluster(4, latency=latency, seed=2)
    return SimRaymondCluster(5, latency=latency, seed=3)


def _cycle(cluster, protocol, node, lock):
    """One acquire/release of *lock* at *node* (a process body)."""

    client = cluster.client(node)
    if protocol == "hierarchical":
        yield client.acquire(lock, LockMode.W)
        yield Timeout(cluster.sim, 0.01)
        client.release(lock, LockMode.W)
    else:
        yield client.acquire(lock)
        yield Timeout(cluster.sim, 0.01)
        client.release(lock)


def _settled(protocol):
    """A drained cluster in which nodes 1 and 2 touched two locks each
    and every other node touched nothing: most pairs are unborn."""

    cluster = _build(protocol)
    run_processes(cluster.sim, [
        _cycle(cluster, protocol, node, lock)
        for node in (1, 2) for lock in ("a", "b")
    ])
    return cluster


def _materializing_audit(cluster):
    """The reference: the audit as a loop that creates every automaton."""

    for lock_id in cluster._touched_locks(cluster.lockspaces):
        cluster.QUIESCENT(
            lock_id,
            {
                node_id: space.automaton(lock_id)
                for node_id, space in cluster.lockspaces.items()
            },
        )


def _verdict(audit, cluster):
    try:
        audit(cluster)
    except InvariantViolation as exc:
        return str(exc)
    return None


def _reads(cluster, recorders):
    return (
        {node: space.lock_ids for node, space in cluster.lockspaces.items()},
        cluster.cluster_view(),
        {
            node: space.flight_state()
            for node, space in cluster.lockspaces.items()
        },
        {node: recorder.last_seq for node, recorder in recorders.items()},
    )


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_audit_registers_and_records_nothing(protocol):
    cluster = _settled(protocol)
    recorders = attach_recorders(cluster)
    before = _reads(cluster, recorders)
    assert before[0][3] == [], "node 3 must start with unborn pairs"
    cluster.assert_quiescent_invariants()
    assert _reads(cluster, recorders) == before


def test_audit_keeps_the_born_count_of_a_ledger_unit(monkeypatch):
    """``paper120`` script 0 at seed 2003 creates 1,489 automata, and
    the audit that ends the unit adds none of the 13,031 unborn pairs."""

    clusters = []

    class Kept(workloads.SimHierarchicalCluster):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            clusters.append(self)

    monkeypatch.setattr(workloads, "SimHierarchicalCluster", Kept)
    result = workloads.run_bare(workloads.WORKLOADS["paper120"], 2003, 0)
    assert result.problems == []
    (cluster,) = clusters
    born = sum(len(space.lock_ids) for space in cluster.lockspaces.values())
    assert born == 1489


# -- the same verdict as a materializing audit --------------------------


def _token_node(cluster, lock_id):
    for node, space in cluster.lockspaces.items():
        automaton = space.existing(lock_id)
        if automaton is not None and automaton.has_token:
            return node
    raise AssertionError(f"no born token node for {lock_id!r}")


def _second_token(protocol):
    cluster = _settled(protocol)
    automaton = cluster.lockspaces[3].automaton("a")
    if protocol == "hierarchical":
        automaton.splice_token()
    elif protocol == "naimi":
        automaton.splice_take_token()
    else:
        automaton.splice_holder(None)
    return cluster


def _pending_request(protocol):
    # Stop the simulator while node 1's request is still in flight.
    cluster = _build(protocol, latency=Fixed(0.1))
    Process(cluster.sim, _cycle(cluster, protocol, 1, "a"))
    cluster.sim.run(until=0.05)
    return cluster


def _stale_child(protocol):
    # Node 1 keeps a read copy, so something is held; node 3 never
    # touched "a", so its birth instance owns nothing and the record of
    # it as a child at the token node is stale.
    cluster = _build(protocol)

    def keep():
        yield cluster.client(1).acquire("a", LockMode.R)

    run_processes(cluster.sim, [keep()])
    token = cluster.lockspaces[_token_node(cluster, "a")].existing("a")
    token.splice_adopt_child(3, LockMode.R, 1)
    return cluster


def _born_away_from_home(protocol):
    # Node 0 is the token home (Raymond: the tree root) of "fresh"; only
    # node 3 creates the lock.  Read as a birth instance, the home holds
    # the token and the structure is sound.
    cluster = _settled(protocol)
    cluster.lockspaces[3].automaton("fresh")
    return cluster


CORRUPTIONS = {
    "second-token": (_second_token, PROTOCOLS),
    "pending-request": (_pending_request, PROTOCOLS),
    "stale-child": (_stale_child, ("hierarchical",)),
    "born-away-from-home": (_born_away_from_home, PROTOCOLS),
}


@pytest.mark.parametrize("name, protocol", [
    pytest.param(name, protocol, id=f"{name}-{protocol}")
    for name, (_build_corrupted, protocols) in CORRUPTIONS.items()
    for protocol in protocols
])
def test_verdict_matches_a_materializing_audit(name, protocol):
    build_corrupted, _protocols = CORRUPTIONS[name]
    audited = build_corrupted(protocol)
    verdict = _verdict(type(audited).assert_quiescent_invariants, audited)
    reference = _verdict(_materializing_audit, build_corrupted(protocol))
    assert verdict == reference
    if name == "born-away-from-home":
        assert verdict is None
    else:
        assert verdict is not None
